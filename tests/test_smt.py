import io
import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from minisol.engine import synthesize
from minisol.explorer import Limits
from minisol.smt import refute as refute_mod, solve as solve_mod, solve_text
from minisol.smt.parse import Script, SmtParseError, parse_script
from minisol.smt.solve import (DEFAULT_CONFLICT_BUDGET, SmtUnknown,
                               solve_commands)
from minisol.smt.terms import BOOL, BV_BINOPS, BV_CMPS, Ctx, SmtError, \
    array, bv, chain_above, print_term
from ref_oracles import (reference_array_free, reference_free_vars,
                         reference_rewrite)

A8 = "(Array (_ BitVec 8) (_ BitVec 8))"


def solve(text):
    return solve_text(text)


def first_line(text):
    return text.splitlines()[0]


def model_dict(text):
    """Parse the ((sym val) ...) answer line into a dict."""
    from minisol.smt.parse import read_sexprs, tokenize
    lines = text.splitlines()
    if lines[0] != "sat" or len(lines) < 2:
        return {}
    out = {}
    for form in read_sexprs(tokenize(lines[1])):
        for pair in form if isinstance(form[0], list) else [form]:
            key = pair[0] if isinstance(pair[0], str) else None
            val = pair[-1]
            if isinstance(val, list):
                val = int(val[1][2:])
            elif val in ("true", "false"):
                val = val == "true"
            elif val.startswith("#x"):
                val = int(val[2:], 16)
            if key is not None:
                out[key] = val
    return out


def test_contradiction_unsat():
    assert first_line(solve("""
(declare-const x (_ BitVec 8))
(assert (bvugt x (_ bv10 8)))
(assert (bvult x (_ bv10 8)))
(check-sat)
""")) == "unsat"


def test_models_satisfy_simple_constraints():
    out = solve("""
(declare-const x (_ BitVec 8))
(declare-const y (_ BitVec 8))
(assert (bvugt x (_ bv200 8)))
(assert (= y (bvadd x (_ bv100 8))))
(check-sat)
(get-value (x y))
""")
    m = model_dict(out)
    assert m["x"] > 200
    assert m["y"] == (m["x"] + 100) & 0xFF


def test_wraparound_add_is_exact():
    assert first_line(solve("""
(declare-const r (_ BitVec 16))
(assert (= r (bvadd (_ bv65535 16) (_ bv1 16))))
(assert (distinct r (_ bv0 16)))
(check-sat)
""")) == "unsat"


def test_boolean_structure():
    out = solve("""
(declare-const a Bool)
(declare-const b Bool)
(assert (and (or a b) (not (and a b)) (=> a false)))
(check-sat)
(get-value (a b))
""")
    m = model_dict(out)
    assert m == {"a": False, "b": True}


@pytest.mark.parametrize("script", [
    """(declare-const x (_ BitVec 8))
(assert (forall ((k (_ BitVec 8))) (bvuge k x)))
(check-sat)""",
    """(declare-fun f ((_ BitVec 8)) (_ BitVec 8))
(check-sat)""",
], ids=["forall", "unary-function"])
def test_quantifiers_and_functions_are_rejected(script):
    """The fragment is quantifier-free, and a mapping is an array: a
    quantifier or a function of arity one is a parse error, in process
    and through the process interface."""
    with pytest.raises(SmtParseError):
        parse_script(script)
    proc = run_process(script)
    assert proc.returncode != 0 and "error" in proc.stdout


@pytest.mark.parametrize("second", [
    "(= f g)",
    "(= f ((as const %s) (_ bv1 8)))" % A8,
    "(= f (store g (_ bv2 8) (_ bv5 8)))",
], ids=["alias", "const", "store"])
def test_an_array_defined_twice_is_never_sat(second):
    """f's first definition holds zero at every key; a second definition of
    f must not replace it unchecked.  With the first, f[3] = g[3] = 1 is
    unsat; with the second alone it would be sat, so the only sound
    answers are unsat and unknown."""
    out = solve("""
(declare-const f %s)
(declare-const g %s)
(assert (= f ((as const %s) (_ bv0 8))))
(assert %s)
(assert (= (select g (_ bv3 8)) (_ bv1 8)))
(assert (= (select f (_ bv3 8)) (select g (_ bv3 8))))
(check-sat)
""" % (A8, A8, A8, second))
    assert first_line(out) in ("unsat", "unknown")


@pytest.mark.parametrize("assertion", [
    "(distinct f g)",
    "(or b (= f g))",
    "(= (store f (_ bv1 8) (_ bv1 8)) (store g (_ bv1 8) (_ bv1 8)))",
    "(= (select (ite b f g) (_ bv1 8)) (_ bv1 8))",
])
def test_an_array_outside_a_definition_or_select_is_unknown(assertion):
    out = solve("""
(declare-const f %s)
(declare-const g %s)
(declare-const b Bool)
(assert %s)
(check-sat)
""" % (A8, A8, assertion))
    assert first_line(out) == "unknown"


@pytest.mark.parametrize("term", [
    "(select f)",
    "(select x x)",
    "(select f (_ bv1 16))",
    "(store f x)",
    "(store f x (_ bv1 16))",
    "((as const %s) (_ bv1 16))" % A8,
])
def test_a_malformed_array_term_is_an_error(term):
    """Arity and sorts are checked as the script is read: the index has
    the key sort and a stored or constant value the value sort."""
    with pytest.raises(SmtError):
        parse_script("""
(declare-const f %s)
(declare-const x (_ BitVec 8))
(assert (= %s (_ bv0 8)))
""" % (A8, term))


@pytest.mark.parametrize("term", [
    "(bvadd x)", "(bvult x)", "(bvult x x x)", "(not)", "(bvneg)",
    "(concat x)", "((_ zero_extend 2))", "(= (ite true x) x)", "(= x)",
    "(distinct x)", "(=> true)", "(xor)", "(= (bvnot x x) x)",
    "(= ((_ extract 3 0) x) x)",
])
def test_a_malformed_operator_is_an_error(monkeypatch, capsys, term):
    """Every operator gets as many operands as it takes, of the sorts it
    takes: otherwise the process prints one error line and exits 1,
    instead of a traceback or an answer."""
    from minisol.smt.__main__ import main
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "(declare-const x (_ BitVec 8))\n(assert %s)\n(check-sat)\n"
        % term))
    assert main() == 1
    out = capsys.readouterr().out
    assert out.startswith("(error ") and out.count("\n") == 1


def test_cyclic_array_definitions_are_unknown():
    out = solve("""
(declare-const f %s)
(declare-const g %s)
(declare-const k (_ BitVec 8))
(assert (= f (store g (_ bv1 8) (_ bv1 8))))
(assert (= g (store f (_ bv2 8) (_ bv2 8))))
(assert (= (select f k) (_ bv3 8)))
(check-sat)
""" % (A8, A8))
    assert first_line(out) == "unknown"


def test_frame_axiom_semantics():
    """A store changes one key and keeps every other one (the frame)."""
    out = solve("""
(declare-const m!0 (Array (_ BitVec 16) (_ BitVec 256)))
(declare-const m!1 (Array (_ BitVec 16) (_ BitVec 256)))
(declare-const m!2 (Array (_ BitVec 16) (_ BitVec 256)))
(declare-const k (_ BitVec 16))
(assert (= m!0 ((as const (Array (_ BitVec 16) (_ BitVec 256))) (_ bv0 256))))
(assert (= m!1 (store m!0 (_ bv5 16) (_ bv7 256))))
(assert (= m!2 (store m!1 k (_ bv9 256))))
(assert (distinct k (_ bv5 16)))
(check-sat)
(get-value ((select m!2 (_ bv5 16)) (select m!2 k) (select m!1 k) k))
""")
    lines = out.splitlines()
    assert lines[0] == "sat"
    from minisol.smt.parse import read_sexprs, tokenize
    pairs = read_sexprs(tokenize(lines[1]))[0]
    values = [int(p[-1][1][2:]) for p in pairs]
    m2_at5, m2_atk, m1_atk, k = values
    assert m2_at5 == 7          # untouched by the second write
    assert m2_atk == 9
    assert m1_atk == 0          # before the second write that cell was zero
    assert k != 5


def test_two_writes_same_key_latest_wins():
    out = solve("""
(declare-const m!0 (Array (_ BitVec 8) (_ BitVec 256)))
(declare-const m!1 (Array (_ BitVec 8) (_ BitVec 256)))
(declare-const m!2 (Array (_ BitVec 8) (_ BitVec 256)))
(assert (= m!0 ((as const (Array (_ BitVec 8) (_ BitVec 256))) (_ bv0 256))))
(assert (= m!1 (store m!0 (_ bv3 8) (_ bv10 256))))
(assert (= m!2 (store m!1 (_ bv3 8) (_ bv20 256))))
(check-sat)
(get-value ((select m!2 (_ bv3 8))))
""")
    assert "(_ bv20 256)" in out


def test_ackermann_congruence_for_free_functions():
    """An array no assertion defines is a free function of its keys: equal
    keys read equal values."""
    assert first_line(solve("""
(declare-const f %s)
(declare-const a (_ BitVec 8))
(declare-const b (_ BitVec 8))
(assert (= a b))
(assert (distinct (select f a) (select f b)))
(check-sat)
""" % A8)) == "unsat"


def test_a_read_only_a_query_makes_agrees_with_the_model():
    """get-value of a read no assertion makes still obeys congruence: with
    a = 1, f[1] is f[a]."""
    from minisol.smt.parse import read_sexprs, tokenize
    out = solve("""
(declare-const f %s)
(declare-const a (_ BitVec 8))
(assert (= (select f a) (_ bv5 8)))
(assert (= a (_ bv1 8)))
(check-sat)
(get-value ((select f (_ bv1 8)) a))
""" % A8)
    pairs = read_sexprs(tokenize(out.splitlines()[1]))[0]
    assert [int(p[-1][1][2:]) for p in pairs] == [5, 1]


def test_no_check_sat_is_reported():
    assert "unknown" in solve("(declare-const x Bool)")


def test_parse_error_on_garbage():
    with pytest.raises(SmtParseError):
        parse_script("(assert (bvadd x))")


OPS1 = ["bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvand", "bvor",
        "bvxor"]
CMPS = ["bvult", "bvule", "bvugt", "bvuge", "="]


def brute_force_sat(width, clauses):
    """clauses: python callables over (x, y)."""
    for x, y in itertools.product(range(1 << width), repeat=2):
        if all(c(x, y) for c in clauses):
            return True
    return False


def py_arith(op, x, y, width):
    m = (1 << width) - 1
    if op == "bvadd":
        return (x + y) & m
    if op == "bvsub":
        return (x - y) & m
    if op == "bvmul":
        return (x * y) & m
    if op == "bvudiv":
        return x // y if y else m
    if op == "bvurem":
        return x % y if y else x
    if op == "bvand":
        return x & y
    if op == "bvor":
        return x | y
    return x ^ y


def py_cmp(op, a, b):
    return {"bvult": a < b, "bvule": a <= b, "bvugt": a > b,
            "bvuge": a >= b, "=": a == b}[op]


@pytest.mark.parametrize("seed", range(60))
def test_random_formulas_match_brute_force(seed):
    """Random two-variable width-4 formulas: solver verdict vs enumeration."""
    rng = random.Random(seed)
    width = 4
    n_clauses = rng.randint(1, 3)
    smt_clauses = []
    py_clauses = []
    for _ in range(n_clauses):
        op = rng.choice(OPS1)
        cmp_op = rng.choice(CMPS)
        c = rng.randrange(1 << width)
        d = rng.randrange(1 << width)
        smt_clauses.append("(assert (%s (%s x y) (_ bv%d %d)))"
                           % (cmp_op, op, c, width))
        py_clauses.append(
            lambda x, y, op=op, cmp_op=cmp_op, c=c: py_cmp(
                cmp_op, py_arith(op, x, y, width), c))
        if rng.random() < 0.4:
            smt_clauses.append("(assert (bvuge x (_ bv%d %d)))" % (d, width))
            py_clauses.append(lambda x, y, d=d: x >= d)
    script = ("(declare-const x (_ BitVec %d))\n"
              "(declare-const y (_ BitVec %d))\n" % (width, width)
              + "\n".join(smt_clauses) + "\n(check-sat)\n(get-value (x y))\n")
    out = solve(script)
    expected = brute_force_sat(width, py_clauses)
    got = first_line(out)
    assert got == ("sat" if expected else "unsat"), script
    if expected:
        m = model_dict(out)
        assert all(c(m["x"], m["y"]) for c in py_clauses), script


@pytest.mark.parametrize("seed", range(20))
def test_random_store_chains_match_dict_semantics(seed):
    """Random write/read chains over one map vs a plain dict."""
    rng = random.Random(100 + seed)
    width = 8
    gens = rng.randint(1, 4)
    sort = "(Array (_ BitVec 8) (_ BitVec 256))"
    lines = ["(declare-const m!0 %s)" % sort,
             "(assert (= m!0 ((as const %s) (_ bv0 256))))" % sort]
    table = {}
    for g in range(1, gens + 1):
        key = rng.randrange(1 << width)
        val = rng.randrange(1000)
        table[key] = val
        lines.append("(declare-const m!%d %s)" % (g, sort))
        lines.append("(assert (= m!%d (store m!%d (_ bv%d 8) (_ bv%d 256))))"
                     % (g, g - 1, key, val))
    probes = [rng.randrange(1 << width) for _ in range(4)]
    lines.append("(check-sat)")
    lines.append("(get-value (%s))" % " ".join(
        "(select m!%d (_ bv%d 8))" % (gens, p) for p in probes))
    out = solve("\n".join(lines) + "\n")
    assert first_line(out) == "sat"
    from minisol.smt.parse import read_sexprs, tokenize
    pairs = read_sexprs(tokenize(out.splitlines()[1]))[0]
    got = [int(p[-1][1][2:]) for p in pairs]
    assert got == [table.get(p, 0) for p in probes]


# -- linear (dis)equalities, folded -------------------------------------------

def evaluate(term, env):
    """Plain evaluation of the operators the random suites build: every
    operator the solver evaluates."""
    op = term.op
    if op == "var":
        return env[term.val]
    if op in ("const", "cbool"):
        return term.val[0] if op == "const" else term.val
    if op == "ite":
        return evaluate(term.args[1] if evaluate(term.args[0], env)
                        else term.args[2], env)
    args = [evaluate(a, env) for a in term.args]
    if op in ("and", "or", "not"):
        return {"and": all, "or": any, "not": lambda a: not a[0]}[op](args)
    if op == "xor":
        return sum(args) % 2 == 1
    if op == "=>":
        return not args[0] or args[1]
    if op in ("=", "distinct", "bvult", "bvule", "bvugt", "bvuge"):
        return py_cmp(op, *args) if op != "distinct" else args[0] != args[1]
    width = term.sort[1]
    mask = (1 << width) - 1
    if op == "bvneg":
        return -args[0] & mask
    if op == "bvnot":
        return ~args[0] & mask
    if op == "bvshl":
        return args[0] << args[1] & mask if args[1] < width else 0
    if op == "bvlshr":
        return args[0] >> args[1] if args[1] < width else 0
    if op == "extract":
        hi, lo = term.val
        return args[0] >> lo & ((1 << (hi - lo + 1)) - 1)
    if op == "zero_extend":
        return args[0]
    if op == "sign_extend":
        inner = term.args[0].sort[1]
        return args[0] - (args[0] >> (inner - 1) << inner) & mask
    if op == "concat":
        return args[0] << term.args[1].sort[1] | args[1]
    return py_arith(op, args[0], args[1], width)


def random_linear_term(rng, ctx, atoms, width, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return ctx.const(rng.randrange(1 << width), width)
        return rng.choice(atoms)
    op = rng.choice(["bvadd", "bvsub", "bvneg", "bvmul"])
    sub = random_linear_term(rng, ctx, atoms, width, depth - 1)
    if op == "bvneg":
        return ctx.mk(op, sub)
    if op == "bvmul":
        scale = ctx.const(rng.randrange(1 << width), width)
        return ctx.mk(op, *((scale, sub) if rng.random() < 0.5
                            else (sub, scale)))
    return ctx.mk(op, sub, random_linear_term(rng, ctx, atoms, width,
                                              depth - 1))


def random_comparison(rng, ctx, atoms, width):
    """A (dis)equality, sometimes negated, whose right side is often the
    left side plus a constant, possibly with a term added and taken away."""
    lhs = random_linear_term(rng, ctx, atoms, width, 3)
    shift = ctx.const(rng.randrange(1 << width), width)
    kind = rng.randrange(3)
    if kind == 0:
        rhs = random_linear_term(rng, ctx, atoms, width, 3)
    elif kind == 1:
        rhs = ctx.mk(rng.choice(["bvadd", "bvsub"]), lhs, shift)
    else:
        extra = random_linear_term(rng, ctx, atoms, width, 2)
        rhs = ctx.mk("bvadd", ctx.mk("bvsub", lhs, extra),
                     ctx.mk("bvadd", extra, shift))
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    term = ctx.mk(rng.choice(["=", "distinct"]), lhs, rhs)
    return ctx.mk("not", term) if rng.random() < 0.3 else term


def linear_fold(term):
    """Whether folding read `term`, or the comparison it negates, through
    its linear form: decided it (a constant) or solved it (``x = v``)."""
    if term.op == "not":
        term = term.args[0]
    return term.op == "cbool" or (term.op == "=" and term.args[0].op == "var"
                                  and term.args[1].op == "const")


@pytest.mark.parametrize("seed", range(30))
def test_linear_refuter_matches_brute_force(seed):
    """Whenever folding decides a random comparison through its linear
    form, or solves it to ``x = v``, the result holds exactly where the
    comparison does, on every assignment of its variables."""
    rng = random.Random(seed)
    ctx = Ctx()
    width = rng.randint(1, 4)
    names = ["x", "y", "z"][:rng.randint(2, 3)]
    atoms = [ctx.var(n, bv(width)) for n in names]
    envs = [dict(zip(names, values)) for values in
            itertools.product(range(1 << width), repeat=len(names))]
    decided = 0
    for _ in range(8):
        term = random_comparison(rng, ctx, atoms, width)
        out = solve_mod.fold(ctx, term)
        if not linear_fold(out):
            continue
        decided += 1
        assert all(evaluate(out, env) == evaluate(term, env)
                   for env in envs), (term, out)
    assert decided


def test_linear_refuter_fixed_cases():
    ctx = Ctx()
    x = ctx.var("x", bv(8))
    c = ctx.var("c", ("bool",))
    one = ctx.const(1, 8)

    def plus(a, k):
        return ctx.mk("bvadd", a, ctx.const(k, 8))

    def folded(op, *args):
        return solve_mod.fold(ctx, ctx.mk(op, *args))

    assert folded("=", plus(plus(x, 1), 1), x) is ctx.FALSE
    # x + 255 + 1 wraps back to x: true
    assert folded("=", plus(plus(x, 255), 1), x) is ctx.TRUE
    assert folded("distinct", ctx.mk("bvsub", plus(x, 1), x), one) \
        is ctx.FALSE
    # an ite is an atom: the same one on both sides cancels
    ite = ctx.mk("ite", c, x, ctx.var("y", bv(8)))
    assert folded("=", ctx.mk("bvadd", ite, one), ite) is ctx.FALSE
    assert folded("not", ctx.mk(
        "=", ctx.mk("bvsub", ctx.mk("bvadd", ite, x), x), ite)) is ctx.FALSE
    # a different atom on one side leaves the comparison undecided
    undecided = ctx.mk("=", plus(ite, 1), plus(x, 1))
    assert solve_mod.fold(ctx, undecided) is undecided
    # one variable with an odd coefficient is solved: 3x + 1 = 7 is x = 2
    assert folded("=", plus(ctx.mk("bvmul", ctx.const(3, 8), x), 1),
                  ctx.const(7, 8)) is ctx.mk("=", x, ctx.const(2, 8))
    # an even coefficient, an ite atom and a disequality stay as they are
    for kept in (ctx.mk("=", ctx.mk("bvmul", ctx.const(2, 8), x),
                        ctx.const(4, 8)),
                 ctx.mk("=", plus(ite, 1), ctx.const(5, 8)),
                 ctx.mk("distinct", plus(x, 1), ctx.const(5, 8))):
        assert solve_mod.fold(ctx, kept) is kept


def test_offset_cancelling_check_is_unsat_without_bit_blasting(monkeypatch):
    def no_blaster():
        raise AssertionError("bit-blasted a check folding decides")
    monkeypatch.setattr(solve_mod, "Blaster", no_blaster)
    one = "#x" + "0" * 63 + "1"
    assert solve("""
(declare-const threshold!0 (_ BitVec 256))
(declare-const b Bool)
(assert (or b (bvult threshold!0 %s)))
(assert (= (bvadd (bvadd threshold!0 %s) %s) threshold!0))
(check-sat)
""" % (one, one, one)) == "unsat\n"


# -- greedy model search ------------------------------------------------------

@pytest.fixture
def no_bit_blasting(monkeypatch):
    def no_blaster():
        raise AssertionError("bit-blasted a check greedy should decide")
    monkeypatch.setattr(solve_mod, "Blaster", no_blaster)


# A token (state-var) residual: conjunct 3 wants the else branch, which
# needs msg.sender!t1 != owner!0; greedy must keep that branch taken while
# it raises %ack!balances!0!1, not swap in the free $t4!t0!0 branch.
TOKEN_TAKEN_BRANCH = """
(declare-const $t4!t0!0 (_ BitVec 256))
(declare-const %ack!balances!0!0 (_ BitVec 256))
(declare-const %ack!balances!0!1 (_ BitVec 256))
(declare-const msg.sender!t0 (_ BitVec 160))
(declare-const msg.sender!t1 (_ BitVec 160))
(declare-const owner!0 (_ BitVec 160))
(assert (bvule msg.sender!t0 (_ bv7 160)))
(assert (bvule msg.sender!t1 (_ bv7 160)))
(assert (bvugt (ite (= msg.sender!t1 owner!0) $t4!t0!0 %ack!balances!0!1)
               (_ bv500000 256)))
(assert (distinct msg.sender!t1 owner!0))
(assert (or (distinct owner!0 msg.sender!t1)
            (= %ack!balances!0!0 %ack!balances!0!1)))
(check-sat)
"""

# A token (state-var) residual: msg.sender!t2 != owner!0 must not make
# msg.sender!t2 collide with msg.sender!t1, or the balances congruence of
# the last conjunct breaks conjunct 3.
TOKEN_FRESH_SENDER = """
(declare-const %ack!balances!0!0 (_ BitVec 256))
(declare-const %ack!balances!0!1 (_ BitVec 256))
(declare-const %ack!balances!0!2 (_ BitVec 256))
(declare-const amount!t1!0 (_ BitVec 256))
(declare-const msg.sender!t0 (_ BitVec 160))
(declare-const msg.sender!t1 (_ BitVec 160))
(declare-const msg.sender!t2 (_ BitVec 160))
(declare-const owner!0 (_ BitVec 160))
(assert (bvule msg.sender!t0 (_ bv7 160)))
(assert (bvule msg.sender!t1 (_ bv7 160)))
(assert (not (bvuge (ite (= msg.sender!t1 msg.sender!t0)
                         (_ bv1000000 256) %ack!balances!0!1)
                    (bvadd amount!t1!0 (_ bv1 256)))))
(assert (bvule msg.sender!t2 (_ bv7 160)))
(assert (bvugt (ite (= msg.sender!t2 msg.sender!t0)
                    (_ bv1000000 256) %ack!balances!0!2)
               (_ bv500000 256)))
(assert (distinct msg.sender!t2 owner!0))
(assert (or (distinct msg.sender!t0 msg.sender!t1)
            (= %ack!balances!0!0 %ack!balances!0!1)))
(assert (or (distinct msg.sender!t0 msg.sender!t2)
            (= %ack!balances!0!0 %ack!balances!0!2)))
(assert (or (distinct msg.sender!t1 msg.sender!t2)
            (= %ack!balances!0!1 %ack!balances!0!2)))
(check-sat)
"""


def test_greedy_keeps_a_taken_ite_branch(no_bit_blasting):
    assert solve(TOKEN_TAKEN_BRANCH) == "sat\n"


def test_greedy_gives_a_distinct_variable_a_fresh_value(no_bit_blasting):
    assert solve(TOKEN_FRESH_SENDER) == "sat\n"


def test_a_variable_missing_from_the_env_is_zero_or_false():
    """The greedy search keeps no table of a conjunct's variables and no
    explicit zeros: a fresh value avoids the values the residual's other
    variables hold under the env, 0 for one the env lacks, and the
    evaluator reads a missing variable as 0 or false."""
    ctx = Ctx()
    x, y, z = (ctx.var(name, bv(8)) for name in "xyz")
    residual = [ctx.mk("distinct", x, y), ctx.mk("distinct", x, z)]
    # 0 is z's (missing), 1 is y's
    assert solve_mod._fresh_value(x, 0, {"y": 1}, residual) == 2
    evaluator = solve_mod._Evaluator({}, {})
    assert evaluator.eval(x) == 0
    assert evaluator.eval(ctx.var("b", BOOL)) is False


def test_greedy_solves_one_variable_linear_equations(no_bit_blasting):
    """For c*x + k = v at 8 bits, every coefficient 1-255: whenever brute
    force finds an x, the greedy search does."""
    solved = 0
    for c in range(1, 256):
        rng = random.Random(c)
        k = rng.randrange(256)
        for r in (c * rng.randrange(256) % 256, rng.randrange(256)):
            v = (r + k) % 256
            if all((c * x + k) % 256 != v for x in range(256)):
                continue
            ctx = Ctx()
            x = ctx.var("x", bv(8))
            lhs = ctx.mk("bvadd", ctx.mk("bvmul", ctx.const(c, 8), x),
                         ctx.const(k, 8))
            script = Script(asserts=[ctx.mk("=", lhs, ctx.const(v, 8))],
                            queries=[x])
            result = solve_commands(ctx, script)
            assert result.status == "sat"
            assert (c * result.values[0] + k) % 256 == v
            solved += 1
    assert solved > 255


def test_greedy_solves_a_doubled_variable(no_bit_blasting):
    assert model_dict(solve("""
(declare-const p (_ BitVec 8))
(assert (= (bvadd p p) (_ bv6 8)))
(check-sat)
(get-value (p))
""")) == {"p": 3}


@pytest.mark.parametrize("condition, holds", [
    ("(bvuge x (bvadd x (_ bv3 8)))", lambda x, v: x >= (x + 3) % 256),
    ("(bvult (bvadd x v) x)", lambda x, v: (x + v) % 256 < x),
])
def test_greedy_tries_wrap_around_values(no_bit_blasting, condition, holds):
    model = model_dict(solve("""
(declare-const x (_ BitVec 8))
(declare-const v (_ BitVec 8))
(assert %s)
(check-sat)
(get-value (x v))
""" % condition))
    assert holds(model["x"], model["v"])


# -- the bit-blast tail, decided at word level ---------------------------------

def word(width, value):
    return "(_ bv%d %d)" % (value, width)


# loop_sum's loop guards, the loop run exactly twice: round 0 meets
# i + 1 < rounds by wrapping i to rounds - 2 (rounds is 1, so 2^256 - 1),
# which breaks i < rounds; from round 1 the move that keeps it raises rounds
LOOP_GUARDS = """
(declare-const i (_ BitVec 256))
(declare-const rounds (_ BitVec 256))
(declare-const total (_ BitVec 256))
(assert (bvult i rounds))
(assert (bvult (bvadd i %(one)s) rounds))
(assert (= %(six)s (bvadd (bvadd total %(three)s) %(three)s)))
(assert (not (bvult (bvadd (bvadd i %(one)s) %(one)s) rounds)))
(check-sat)
(get-value (i rounds total))
""" % {"one": word(256, 1), "three": word(256, 3), "six": word(256, 6)}


def test_greedy_keeps_the_loop_guards_that_held(no_bit_blasting):
    assert model_dict(solve(LOOP_GUARDS)) == {"i": 0, "rounds": 2, "total": 0}


@pytest.mark.parametrize("assertion, holds", [
    # a generated program's residual: g2 cancels, leaving g1 - 0xfffe = 0
    ("(not (distinct (bvadd g2 g1) (bvadd g2 #xfffe)))",
     lambda g1, g2: g1 == 0xfffe),
    # g2 cancels, leaving g1 != 0
    ("(distinct (bvadd g2 g1) g2)", lambda g1, g2: g1 != 0),
])
def test_greedy_solves_a_difference_the_sides_share_a_variable_in(
        no_bit_blasting, assertion, holds):
    """Solving one side for the other's value moves both when they share
    g2; their linear difference has g1 alone."""
    model = model_dict(solve("""
(declare-const g1 (_ BitVec 16))
(declare-const g2 (_ BitVec 16))
(assert %s)
(check-sat)
(get-value (g1 g2))
""" % assertion))
    assert holds(model["g1"], model["g2"])


@pytest.mark.parametrize("assertion, decided_by", [
    # corpus/contradiction.msol: x > 10 and x < 10
    ("(and (bvugt x %s) (bvult x %s))" % (word(8, 10), word(8, 10)),
     "bounds"),
    # corpus/overflow.msol: a uint16 below 0
    ("(bvult v #x0000)", "fold"),
    ("(= (bvadd p p) %s)" % word(8, 5), "parity"),
    ("(bvuge (bvadd p p) #xff)", "parity"),
    ("(= ((_ zero_extend 248) p) %s)" % word(256, 257), "bounds"),
    ("(and (bvugt #x02 (bvsub p #xfe)) (bvult p (bvsub p #x7f)))",
     "interval"),
])
def test_word_level_unsat(no_bit_blasting, monkeypatch, assertion,
                          decided_by):
    """Each of these reached the bit-blaster before: now a fold rule
    decides it before the greedy search, or the refuter after it."""
    reasons, searches = [], []
    refutation, greedy = solve_mod.refutation, solve_mod._greedy_model

    def refute(residual):
        reasons.append(refutation(residual))
        return reasons[-1]

    def search(*args):
        searches.append(args)
        return greedy(*args)

    monkeypatch.setattr(solve_mod, "refutation", refute)
    monkeypatch.setattr(solve_mod, "_greedy_model", search)
    assert solve("""
(declare-const x (_ BitVec 8))
(declare-const p (_ BitVec 8))
(declare-const v (_ BitVec 16))
(assert %s)
(check-sat)
""" % assertion) == "unsat\n"
    assert reasons == ([] if decided_by == "fold" else [decided_by])
    assert bool(searches) == (decided_by != "fold")


# -- random terms against enumeration ------------------------------------------

FUZZ_BINOPS = OPS1 + ["bvshl", "bvlshr"]
FUZZ_CMPS = ["bvult", "bvule", "bvugt", "bvuge", "=", "distinct"]


class TermFuzzer:
    """Random nested terms over x and y at one width: repeated subterms
    (a pool of the terms built so far), shared operands (x - x, x < x),
    ite, half of them on equality atoms the script's ites share,
    extract/concat and zero_extend back to the width, the shifts, linear
    shapes (p + p + k), and comparisons against 0, the maximum and other
    constants."""

    def __init__(self, rng, ctx, width):
        self.rng, self.ctx, self.width = rng, ctx, width
        self.vars = [ctx.var("x", bv(width)), ctx.var("y", bv(width))]
        self.pool = list(self.vars)
        x, y = self.vars
        self.atoms = [ctx.mk("=", x, y), ctx.mk("=", x, self.const())]

    def const(self, value=None):
        mask = (1 << self.width) - 1
        if value is None:
            value = self.rng.choice([0, 1, mask,
                                     self.rng.randrange(mask + 1)])
        return self.ctx.const(value, self.width)

    def term(self, depth):
        rng, ctx, w = self.rng, self.ctx, self.width
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(self.pool + [self.const()])
        kind = rng.choice(["binop", "binop", "same", "unop", "ite", "slice",
                           "extend", "linear"])
        sub = self.term(depth - 1)
        if kind == "binop":
            out = ctx.mk(rng.choice(FUZZ_BINOPS), sub, self.term(depth - 1))
        elif kind == "same":
            out = ctx.mk("bvurem", sub, self.const(1)) if rng.random() < 0.1 \
                else ctx.mk(rng.choice(FUZZ_BINOPS), sub, sub)
        elif kind == "unop":
            out = ctx.mk(rng.choice(["bvneg", "bvnot"]), sub)
        elif kind == "ite":
            out = ctx.mk("ite", self.condition(depth - 1), sub,
                         self.term(depth - 1))
        elif kind == "slice":
            k = rng.randint(1, w - 1)
            out = ctx.mk("concat",
                         ctx.mk("extract", sub, val=(k - 1, 0)),
                         ctx.mk("extract", self.term(depth - 1),
                                val=(w - 1, k)))
        elif kind == "extend":
            k = rng.randint(1, w - 1)
            out = ctx.mk("zero_extend", ctx.mk("extract", sub,
                                               val=(k - 1, 0)), val=w - k)
            if rng.random() < 0.5:
                out = ctx.mk(rng.choice(["bvadd", "bvsub"]),
                             *((out, self.const()) if rng.random() < 0.5
                               else (self.const(), out)))
        else:
            scale = rng.choice([sub, ctx.mk("bvadd", sub, sub), ctx.mk(
                "bvmul", self.const(2 * rng.randint(1, 3)), sub)])
            out = ctx.mk(rng.choice(["bvadd", "bvsub"]),
                         *((scale, self.const()) if rng.random() < 0.7
                           else (self.const(), scale)))
        self.pool.append(out)
        return out

    def condition(self, depth):
        """An ite condition: half the time one of the script's two shared
        equality atoms (x = y, and x = k for one constant k), so that
        several ites branch on one atom; otherwise a fresh boolean."""
        if self.rng.random() < 0.5:
            return self.rng.choice(self.atoms)
        return self.boolean(depth)

    def boolean(self, depth):
        rng, ctx = self.rng, self.ctx
        kind = rng.choice(["cmp", "cmp", "cmp", "same", "range", "and", "or",
                           "not"] if depth else ["cmp", "same", "range"])
        if kind == "range":
            a = self.term(depth)
            return ctx.mk("and", *(ctx.mk(rng.choice(FUZZ_CMPS), a,
                                          self.const()) for _ in "lh"))
        if kind in ("and", "or"):
            return ctx.mk(kind, self.boolean(depth - 1),
                          self.boolean(depth - 1))
        if kind == "not":
            return ctx.mk("not", self.boolean(depth - 1))
        a = self.term(depth)
        if kind == "same":
            return ctx.mk(rng.choice(FUZZ_CMPS[:4]), a, a)
        b = self.const() if rng.random() < 0.5 else self.term(depth)
        return ctx.mk(rng.choice(FUZZ_CMPS), *((a, b) if rng.random() < 0.5
                                                else (b, a)))


def counted(monkeypatch, owner, name, classify, hits):
    """Wrap ``owner.name`` so that every call whose result `classify` names
    (it returns None for a call that decided nothing) counts in `hits`."""
    real = getattr(owner, name)

    def wrapper(*args):
        out = real(*args)
        kind = classify(out, *args)
        if kind is not None:
            hits[kind] += 1
        return out
    monkeypatch.setattr(owner, name, wrapper)


def fold_rule(out, _ctx, op, a, b):
    """Which of ``_fold_trivial``'s rules produced `out`."""
    if out is None:
        return None
    if a is b:
        return "self " + op
    if op == "bvurem":
        return "urem 1"
    const = b if b.op == "const" else a
    end = "0" if const.val[0] == 0 else "max"
    return "%s %s %s" % (op, end, "right" if const is b else "left")


def linear_rule(out, _ctx, _op, _a, _b):
    """What ``_fold_linear`` made of a comparison: decided it true or
    false, or solved it to ``x = v``."""
    if out is None:
        return None
    if out.op == "cbool":
        return "linear true" if out.val else "linear false"
    return "linear solved"


def interval_shape(out, term, bounds, _memo):
    """The operator of a term whose shape narrows its interval below its
    sort's range, or "bounded var" for a variable the conjuncts bound."""
    if out[0] == 0 and out[1] == (1 << term.sort[1]) - 1:
        return None
    if term.op == "var":
        return "bounded var"
    return None if term in bounds else term.op


def carried_bound(out, _bounds, term, _lo, _hi, memo):
    """Whether ``_narrow_atom`` carried a bound through x + k or k - x."""
    coeffs, _k = refute_mod.linear(term, memo)
    if len(coeffs) != 1:
        return None
    c = next(iter(coeffs.values()))
    return {1: "x + k", (1 << term.sort[1]) - 1: "k - x"}.get(c)


FOLD_RULES = {"self bvsub", "self bvxor", "self bvurem", "self bvand",
              "self bvor", "self bvult", "self bvule", "self bvugt",
              "self bvuge", "urem 1",
              "bvult 0 right", "bvugt 0 left", "bvule 0 left",
              "bvuge 0 right", "bvugt max right", "bvult max left",
              "bvule max right", "bvuge max left"}
LINEAR_RULES = {"linear true", "linear false", "linear solved"}
REFUTER_BRANCHES = {"bounds", "interval", "parity"}
INTERVAL_SHAPES = {"const", "zero_extend", "ite", "bvadd", "bvsub",
                   "bounded var"}
CARRIED_BOUNDS = {"x + k", "k - x"}


def split_answer(out, *_args):
    """What ``_split`` decided: unsat, unknown, sat (a model), or None."""
    if out is None:
        return None
    return "sat" if isinstance(out, dict) else out.status


def test_random_terms_match_enumeration(monkeypatch):
    """Random scripts of nested terms over two variables at widths 2-4,
    one in ten with the negation of one of its assertions added: the
    solver's sat/unsat is enumeration's, and every model holds.  Every
    rule of ``_fold_trivial``, each outcome of ``_fold_linear`` (decided
    true, decided false, solved), every reason the refuter gives, a conjunct
    next to its negation, every shape its intervals narrow, both ways it
    carries a bound to a variable, and the split on ite conditions both
    refuting every leaf and satisfying one are met along the way."""
    folds, refuted, shapes, carried, split = (Counter() for _ in range(5))
    counted(monkeypatch, solve_mod, "_fold_trivial", fold_rule, folds)
    counted(monkeypatch, solve_mod, "_fold_linear", linear_rule, folds)
    counted(monkeypatch, solve_mod, "refutation",
            lambda out, _residual: out, refuted)
    counted(monkeypatch, solve_mod, "refuted_negation",
            lambda out, _residual: "negation" if out else None, refuted)
    counted(monkeypatch, refute_mod, "interval", interval_shape, shapes)
    counted(monkeypatch, refute_mod, "_narrow_atom", carried_bound, carried)
    counted(monkeypatch, solve_mod, "_split", split_answer, split)
    for seed in range(1500):
        rng = random.Random(seed)
        ctx = Ctx()
        width = rng.randint(2, 4)
        fuzzer = TermFuzzer(rng, ctx, width)
        asserts = [fuzzer.boolean(rng.randint(1, 3))
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            asserts.append(ctx.mk("not", rng.choice(asserts)))
        envs = [{"x": x, "y": y}
                for x, y in itertools.product(range(1 << width), repeat=2)]
        expected = any(all(evaluate(a, env) for a in asserts)
                       for env in envs)
        result = solve_commands(ctx, Script(asserts=asserts,
                                            queries=fuzzer.vars))
        assert result.status == ("sat" if expected else "unsat"), \
            [print_term(a) for a in asserts]
        if expected:
            env = dict(zip("xy", result.values))
            assert all(evaluate(a, env) for a in asserts)
    assert set(folds) == FOLD_RULES | LINEAR_RULES
    assert set(refuted) == REFUTER_BRANCHES | {"negation"}
    assert set(shapes) >= INTERVAL_SHAPES
    assert set(carried) == CARRIED_BOUNDS
    assert set(split) == {"unsat", "sat"}


# -- evaluation kernels --------------------------------------------------------

class KernelFuzzer:
    """Random terms over every operator the evaluator has a kernel for, at
    widths 1-8: bitvector variables x and y of each width, z defined
    through the substitution, boolean variables p and q, constants (0, 1,
    the maximum, the width), shifts by at least the width, bvudiv and
    bvurem by 0, extract, concat, and zero and sign extension."""

    def __init__(self, rng, ctx):
        self.rng, self.ctx = rng, ctx
        self.subst = {}
        self.names = "xyz"

    def var(self, name, width):
        var = self.ctx.var("%s%d" % (name, width), bv(width))
        if name == "z" and var not in self.subst:
            self.names = "xy"           # a definition reads no z
            self.subst[var] = self.bv(width, 2)
            self.names = "xyz"
        return var

    def const(self, width):
        mask = (1 << width) - 1
        return self.ctx.const(self.rng.choice(
            [0, 1, mask, width, self.rng.randrange(mask + 1)]), width)

    def bv(self, width, depth):
        rng, ctx = self.rng, self.ctx
        if depth == 0 or rng.random() < 0.15:
            if rng.random() < 0.3:
                return self.const(width)
            return self.var(rng.choice(self.names), width)
        kind = rng.choice(["binop", "binop", "unop", "ite", "extract",
                           "concat", "extend"])
        if kind in ("concat", "extend") and width == 1:
            kind = "extract"
        if kind == "binop":
            op = rng.choice(sorted(BV_BINOPS))
            b = self.bv(width, depth - 1)
            if op in ("bvshl", "bvlshr") and rng.random() < 0.3:
                b = ctx.const(rng.randrange(width, 1 << width) if width > 1
                              else 1, width)
            elif op in ("bvudiv", "bvurem") and rng.random() < 0.3:
                b = ctx.const(0, width)
            return ctx.mk(op, self.bv(width, depth - 1), b)
        if kind == "unop":
            return ctx.mk(rng.choice(["bvnot", "bvneg"]),
                          self.bv(width, depth - 1))
        if kind == "ite":
            return ctx.mk("ite", self.boolean(depth - 1),
                          self.bv(width, depth - 1), self.bv(width, depth - 1))
        if kind == "extract":
            inner = rng.randint(width, 8)
            lo = rng.randint(0, inner - width)
            return ctx.mk("extract", self.bv(inner, depth - 1),
                          val=(lo + width - 1, lo))
        k = rng.randint(1, width - 1)
        if kind == "concat":
            return ctx.mk("concat", self.bv(width - k, depth - 1),
                          self.bv(k, depth - 1))
        return ctx.mk(rng.choice(["zero_extend", "sign_extend"]),
                      self.bv(width - k, depth - 1), val=k)

    def boolean(self, depth):
        rng, ctx = self.rng, self.ctx
        if depth == 0 or rng.random() < 0.15:
            return rng.choice([ctx.var("p", BOOL), ctx.var("q", BOOL),
                               ctx.TRUE, ctx.FALSE])
        kind = rng.choice(["cmp", "cmp", "not", "nary", "=>", "bool=",
                           "ite"])
        if kind == "cmp":
            width = rng.randint(1, 8)
            return ctx.mk(rng.choice(sorted(BV_CMPS) + ["=", "distinct"]),
                          self.bv(width, depth - 1), self.bv(width, depth - 1))
        if kind == "not":
            return ctx.mk("not", self.boolean(depth - 1))
        if kind == "nary":
            return ctx.mk(rng.choice(["and", "or", "xor"]),
                          *(self.boolean(depth - 1)
                            for _ in range(rng.randint(2, 3))))
        if kind == "ite":
            return ctx.mk("ite", *(self.boolean(depth - 1) for _ in "cte"))
        return ctx.mk("=" if kind == "bool=" else "=>",
                      self.boolean(depth - 1), self.boolean(depth - 1))


def test_evaluation_kernels_match_plain_evaluation():
    """On random terms over every operator with an evaluation kernel, the
    evaluator (one per term set, so later terms read its memo) gives on
    every subterm the value, and the type, plain evaluation gives, a
    variable defined in the substitution taking its definition's value.
    Every kernel runs, shifts by the width or more and division and
    remainder by zero among them.  An operator with no kernel, or an array
    read, cannot be evaluated."""
    met = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        ctx = Ctx()
        fuzzer = KernelFuzzer(rng, ctx)
        terms = [fuzzer.boolean(rng.randint(1, 4)) for _ in range(3)]
        terms += [fuzzer.bv(rng.randint(1, 8), rng.randint(1, 4))
                  for _ in range(3)]
        env = {}
        for var in _subterms(terms + list(fuzzer.subst.values())):
            if var.op == "var" and var not in fuzzer.subst:
                env[var.val] = rng.random() < 0.5 if var.sort == BOOL \
                    else rng.randrange(1 << var.sort[1])
        plain = dict(env)
        for var, definition in fuzzer.subst.items():
            plain[var.val] = evaluate(definition, plain)
        evaluator = solve_mod._Evaluator(env, fuzzer.subst)
        for term in _subterms(terms):
            got, want = evaluator.eval(term), evaluate(term, plain)
            assert got == want and type(got) is type(want), print_term(term)
            met[term.op] += 1
            if term.op in ("bvshl", "bvlshr") \
                    and evaluate(term.args[1], plain) >= term.sort[1]:
                met["shift by the width or more"] += 1
            if term.op in ("bvudiv", "bvurem") \
                    and evaluate(term.args[1], plain) == 0:
                met[term.op + " by 0"] += 1
            met["read through subst"] += term in fuzzer.subst
    assert set(solve_mod._EVAL) <= set(met), set(solve_mod._EVAL) - set(met)
    for case in ("shift by the width or more", "bvudiv by 0", "bvurem by 0",
                 "read through subst"):
        assert met[case], case

    ctx = Ctx()
    x = ctx.var("x", bv(8))
    m = ctx.var("m", array(bv(8), bv(8)))
    for term in (ctx.node("bvrotate", None, (x,), bv(8)),
                 ctx.mk("select", m, x)):
        with pytest.raises(SmtError, match="cannot evaluate"):
            solve_mod._Evaluator({}, {}).eval(term)


# -- term facts ----------------------------------------------------------------

def _subterms(terms):
    """The distinct subterms of `terms`, each once."""
    out, seen, stack = [], set(), list(terms)
    while stack:
        term = stack.pop()
        if id(term) not in seen:
            seen.add(id(term))
            out.append(term)
            stack.extend(term.args)
    return out


def test_term_facts_and_rewrite_match_a_walk_of_every_node():
    """Random terms over x, y and z at widths 2-4, some reading two arrays
    (m, defined as a store chain or a constant array over n, and n, left
    undefined) directly or through store chains.  For every subterm, the
    facts read on the top-level terms first: ``Term.free`` is a
    depth-first collection of its variables, order included, and
    ``occurs`` agrees with it; ``Term.plain`` holds exactly when no
    select, store or array-sorted subterm occurs.  ``rewrite`` gives what
    a rewrite that walks every node gives, under a random acyclic
    substitution, and with split atoms seeded into its memo (each atom
    has a variable, as a folded non-constant atom of a residual does)."""
    met = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        ctx = Ctx()
        width = rng.randint(2, 4)
        fuzzer = TermFuzzer(rng, ctx, width)
        z = ctx.var("z", bv(width))
        fuzzer.vars.append(z)
        fuzzer.pool.append(z)
        sort = array(bv(width), bv(width))
        m, n = ctx.var("m", sort), ctx.var("n", sort)

        def stores(base):
            for _ in range(rng.randint(0, 2)):
                base = ctx.mk("store", base, fuzzer.term(1), fuzzer.term(1))
            return base

        definition = stores(rng.choice(
            [n, ctx.const_array(sort, fuzzer.const())]))
        for _ in range(rng.randint(0, 3)):
            fuzzer.pool.append(ctx.mk("select", stores(rng.choice([m, n])),
                                      fuzzer.term(1)))
        terms = [fuzzer.boolean(rng.randint(1, 3)) for _ in range(4)]

        # the top-level terms' facts first: their subterms' are computed
        # on the way
        for term in terms:
            term.free, term.plain
        for term in _subterms(terms):
            walked = reference_free_vars(term)
            assert list(term.free) == walked, print_term(term)
            assert term.plain == reference_array_free(term)
            for var in fuzzer.vars + [m, n]:
                assert solve_mod.occurs(var, term) \
                    == any(v is var for v in walked)
            met["array read"] += not term.plain

        order = rng.sample(fuzzer.vars, 3)
        subst = {}
        for i, var in enumerate(order[:rng.randint(0, 3)]):
            later = order[i + 1:]
            values = [t for t in fuzzer.pool if all(
                any(v is w for w in later) for v in reference_free_vars(t))]
            subst[var] = rng.choice(values + [fuzzer.const()])
        met["substitution"] += bool(subst)

        folded = [solve_mod.fold(ctx, t) for t in terms]
        candidates = [t for t in _subterms(folded) if t.sort == BOOL
                      and t.op != "cbool" and reference_free_vars(t)]
        atoms = rng.sample(candidates, min(3, len(candidates)))
        truth = [rng.random() < 0.5 for _ in atoms]
        touched = dict.fromkeys(v for a in atoms for v in a.free)

        def seeded():
            return {id(a): ctx.cbool(t) for a, t in zip(atoms, truth)}

        def maps():
            out = solve_mod._Maps(ctx, solve_mod.EMPTY)
            out.defs[m] = definition
            return out

        real, ref = maps(), maps()
        for term, flat in zip(terms, folded):
            assert solve_mod.rewrite(ctx, term, subst, real, {}) is \
                reference_rewrite(ctx, term, subst, ref, {}), \
                print_term(term)
            split = solve_mod.rewrite(ctx, flat, touched, real, seeded())
            assert split is reference_rewrite(ctx, flat, {}, ref, seeded())
            held = _subterms([flat])
            met["atom seeded"] += any(any(a is t for t in held)
                                      for a in atoms)
    assert met["array read"] and met["substitution"] \
        and met["atom seeded"], met


# -- interning -----------------------------------------------------------------

def test_vars_are_interned_on_their_sort():
    """One name can have different widths in the scripts that share a
    context, for example a local slot in two functions, or a mapping's
    key type in two contracts; a read's sort follows its array's."""
    ctx = Ctx()
    assert ctx.var("x", bv(8)) is ctx.var("x", bv(8))
    assert ctx.var("x", bv(8)) is not ctx.var("x", bv(256))
    assert ctx.var("x", bv(256)).sort == bv(256)
    key = ctx.var("k", bv(8))
    narrow = ctx.var("m", array(bv(8), bv(8)))
    wide = ctx.var("m", array(bv(8), bv(256)))
    assert narrow is not wide
    assert ctx.mk("select", narrow, key) is not ctx.mk("select", wide, key)
    assert ctx.mk("select", wide, key).sort == bv(256)


def test_equal_clause_sequences_are_one_chain():
    """A chain is hash-consed cell by cell, so one clause sequence is one
    chain however it was built; what one chain adds above another it
    extends is read off its head."""
    ctx = Ctx()
    a, b, c = (ctx.var(name, BOOL) for name in "abc")
    abc = ctx.chained([a, b, c])
    assert ctx.chained([a], ctx.chained([b, c])) is abc
    assert ctx.chained([a, b], ctx.chained([c])) is abc
    assert list(abc) == [a, b, c] and abc.length == 3
    assert chain_above(abc, ctx.chained([c])) == [a, b]
    assert chain_above(abc, abc) == []
    assert chain_above(abc, None) == [a, b, c]
    assert chain_above(abc, ctx.chained([b])) is None
    assert chain_above(ctx.chained([c]), abc) is None
    assert chain_above(None, None) == []


def test_a_node_rebuilt_with_its_sort_is_the_one_built():
    """``fold`` and ``rewrite`` rebuild nodes through ``ctx.node`` with the
    old node's sort; interning must hand back the object ``mk`` built."""
    ctx = Ctx()
    x = ctx.var("x", bv(8))
    m = ctx.var("m", array(bv(8), bv(16)))
    built = [ctx.mk("bvadd", x, ctx.const(1, 8)),
             ctx.mk("extract", x, val=(3, 0)),
             ctx.mk("zero_extend", x, val=8),
             ctx.mk("bvult", x, ctx.const(7, 8)),
             ctx.mk("not", ctx.mk("=", x, ctx.const(2, 8))),
             ctx.mk("ite", ctx.TRUE, x, ctx.const(0, 8)),
             ctx.mk("select", m, x),
             ctx.mk("store", m, x, ctx.const(3, 16)),
             ctx.const_array(m.sort, ctx.const(0, 16)),
             m,
             x]
    for term in built:
        assert ctx.node(term.op, term.val, term.args, term.sort) is term


# -- folding -------------------------------------------------------------------

@pytest.mark.parametrize("name, options", [
    ("guess_check", {}),
    ("token", {"heuristic": "state-var", "limits": Limits(max_walks=200)}),
    ("multi_tx", {"lazy_check": True}),
])
def test_each_term_is_folded_once_per_run(corpus, monkeypatch, check_log,
                                          name, options):
    """Every check of a run is solved in one term context, and no term
    reaches ``_fold`` twice in the whole run.  Refolding any folded term
    from an empty ``ctx.folded`` gives the term back: the idempotence that
    lets ``fold`` record a result as its own fold.  Every explored walk is
    one solver check, except those whose script repeats an earlier one's."""
    real_fold, real_solve = solve_mod._fold, solve_mod.solve_commands
    seen = set()
    repeats = []
    contexts = {}
    checks = 0

    def fold_once(ctx, term):
        if id(term) in seen:
            repeats.append(term)
        seen.add(id(term))
        return real_fold(ctx, term)

    def solve_counted(ctx, script, *args):
        nonlocal checks
        checks += 1
        contexts[id(ctx)] = ctx
        return real_solve(ctx, script, *args)

    monkeypatch.setattr(solve_mod, "_fold", fold_once)
    monkeypatch.setattr(solve_mod, "solve_commands", solve_counted)
    result = synthesize(corpus[name], **options)
    hits = sum(reason == "repeated" for *_c, reason in check_log)
    assert checks == result.walks_explored - hits > 0
    assert repeats == []

    (ctx,) = contexts.values()
    outputs = {id(t): t for t in ctx.folded.values()}
    ctx.folded = {}
    assert [t for t in outputs.values() if solve_mod.fold(ctx, t) is not t] \
        == []


# -- solves started from a kept reduction --------------------------------------

def _extension(decls, base, new):
    """One context's (base script, extended script): the extension's
    assertions are the new ones, then the base's, the same terms."""
    text = decls + "".join("(assert %s)\n" % a for a in base + new)
    ctx, whole = parse_script(text)
    kept = whole.asserts[:len(base)]
    return ctx, Script(asserts=kept, has_check=True), \
        Script(asserts=whole.asserts[len(base):] + kept, has_check=True)


def _solve_extension(monkeypatch, ctx, base, extended):
    """Solve `base`, then `extended` from its kept reduction; no assertion
    of the base is folded again."""
    kept = solve_commands(ctx, base, None, None, None, False)
    assert kept.status == "sat"
    folded = []
    real_fold = solve_mod.fold
    monkeypatch.setattr(solve_mod, "fold", lambda c, t: (
        folded.append(t), real_fold(c, t))[1])
    result = solve_commands(ctx, extended, None, None, kept.reduction, False)
    monkeypatch.undo()
    assert not set(map(id, base.asserts)) & set(map(id, folded))
    return result


ARRAYS = ("(declare-const f %s)(declare-const g %s)(declare-const a (_ BitVec"
          " 8))(declare-const b (_ BitVec 8))(declare-const k (_ BitVec 8))"
          % (A8, A8))


@pytest.mark.parametrize("index, status", [(3, "unsat"), (4, "sat")])
def test_a_read_the_base_made_binds_to_a_later_definition(monkeypatch, index,
                                                          status):
    """The base reads f at 3 while f is undefined; the extension defines f
    as a store into g.  The base's read becomes the read through the
    definition: at the stored key it is 7, which contradicts k != 7; at
    another key it is g's, and k is free."""
    ctx, base, extended = _extension(
        ARRAYS, ["(= (select f (_ bv3 8)) k)"],
        ["(= f (store g (_ bv%d 8) (_ bv7 8)))" % index,
         "(distinct k (_ bv7 8))"])
    result = _solve_extension(monkeypatch, ctx, base, extended)
    assert result.status == status
    assert solve_commands(ctx, extended).status == status


def test_a_new_read_is_congruent_with_the_bases(monkeypatch):
    """f is never defined: the extension's read f[b], with a = b, must
    equal the base's read f[a]."""
    ctx, base, extended = _extension(
        ARRAYS, ["(= (select f a) (_ bv5 8))"],
        ["(= a b)", "(distinct (select f b) (_ bv5 8))"])
    assert _solve_extension(monkeypatch, ctx, base, extended).status \
        == "unsat"
    assert solve_commands(ctx, extended).status == "unsat"


def test_a_binding_the_extension_makes_reaches_the_bases_residual(
        monkeypatch):
    """a < b is left in the base's residual; the extension binds a to b,
    which turns it into b < b."""
    ctx, base, extended = _extension(ARRAYS, ["(bvult a b)"], ["(= a b)"])
    assert _solve_extension(monkeypatch, ctx, base, extended).status \
        == "unsat"


def test_an_extension_defining_a_defined_array_is_unknown():
    ctx, base, extended = _extension(
        ARRAYS, ["(= f ((as const %s) (_ bv0 8)))" % A8],
        ["(= f (store g (_ bv1 8) (_ bv1 8)))"])
    kept = solve_commands(ctx, base, None, None, None, False)
    with pytest.raises(SmtUnknown):
        solve_commands(ctx, extended, None, None, kept.reduction, False)


def test_a_base_that_is_no_subset_is_not_used():
    """a = 1 is the base's; a script without it starts from empty, so
    a = 2 is sat.  Started from the base it would be unsat."""
    ctx, base, extended = _extension(
        ARRAYS, ["(= a (_ bv1 8))"], ["(= a (_ bv2 8))"])
    kept = solve_commands(ctx, base, None, None, None, False)
    alone = Script(asserts=extended.asserts[:1], has_check=True)
    assert solve_commands(ctx, alone, None, None, kept.reduction,
                          False).status == "sat"
    assert solve_commands(ctx, extended, None, None, kept.reduction,
                          False).status == "unsat"


def test_only_a_sat_answer_keeps_its_reduction():
    ctx, base, extended = _extension(
        ARRAYS, ["(= a (_ bv1 8))"], ["(= a (_ bv2 8))"])
    assert solve_commands(ctx, extended).reduction is None
    ctx, script = parse_script(FACTORING)
    result = solve_commands(ctx, script, DEFAULT_CONFLICT_BUDGET,
                            time.monotonic() - 1)
    assert result.status == "unknown" and result.reduction is None


def test_a_model_of_an_extension_is_the_whole_scripts():
    """Asked for a model, a SAT answer reached from a base is solved again
    from empty: the values are those of a whole-script solve."""
    ctx, base, extended = _extension(
        ARRAYS, ["(bvugt a (_ bv3 8))", "(= (select f a) k)"],
        ["(= b (bvadd a (_ bv1 8)))", "(distinct (select f b) k)"])
    extended.queries = base.queries = [ctx.var(n, bv(8)) for n in "abk"]
    kept = solve_commands(ctx, base, None, None, None, False)
    assert kept.values == []
    whole = solve_commands(ctx, extended)
    again = solve_commands(ctx, extended, None, None, kept.reduction)
    assert again.status == whole.status == "sat"
    assert again.values == whole.values



def test_the_self_check_follows_a_variable_into_a_later_binding(
        monkeypatch):
    """x > 3 is the base's, and its model has x = 4.  The child binds x to
    y + 1 and solves that back to 4: y = 3.  In the grandchild x > 3 reads
    y, so a model search that moves y to 0 breaks it; the self-check,
    which skips only the base's assertions whose free variables kept
    their values, catches it."""
    ctx, whole = parse_script(
        "(declare-const x (_ BitVec 8))(declare-const y (_ BitVec 8))"
        "(declare-const z (_ BitVec 8))(assert (bvugt x (_ bv3 8)))"
        "(assert (= x (bvadd y (_ bv1 8))))(assert (bvult z (_ bv9 8)))")
    scripts = [Script(asserts=whole.asserts[i::-1], has_check=True)
               for i in range(3)]
    base = solve_commands(ctx, scripts[0], None, None, None, False)
    child = solve_commands(ctx, scripts[1], None, None, base.reduction,
                           False)
    assert (base.reduction.env, child.reduction.env) == ({"x": 4}, {"y": 3})
    assert solve_commands(ctx, scripts[2], None, None, child.reduction,
                          False).status == "sat"
    greedy = solve_mod._greedy_model
    monkeypatch.setattr(solve_mod, "_greedy_model", lambda *args: dict(
        greedy(*args), y=0))
    with pytest.raises(solve_mod.SmtInternalError, match="bvugt"):
        solve_commands(ctx, scripts[2], None, None, child.reduction, False)

# -- cases on ite conditions ---------------------------------------------------

# From x = y = 0 greedy keeps the else branch that x = 0 selects and cannot
# move y through bvnot; the leaf x = 2 holds at once.
SPLIT_SAT = """
(declare-const x (_ BitVec 2))
(declare-const y (_ BitVec 2))
(assert (distinct (ite (= x (_ bv2 2)) (_ bv1 2) (bvnot y)) (_ bv3 2)))
(check-sat)
(get-value (x y))
"""

# 6 - x = 7 needs x = 7 (mod 8), where the ite takes its then branch and
# gives 6 - 6 = 0: the refuters refute each leaf, though not the script.
SPLIT_UNSAT = """
(declare-const x (_ BitVec 3))
(assert (= (bvsub (_ bv6 3) (ite (= x (_ bv7 3)) (_ bv6 3) x)) (_ bv7 3)))
(check-sat)
"""


def test_cases_on_an_ite_condition_decide_without_bit_blasting(monkeypatch):
    """Greedy and the refuters decide neither script; the split on the
    ite's condition decides both at word level, the sat one with the
    first leaf's model."""
    answers = Counter()
    counted(monkeypatch, solve_mod, "_split", split_answer, answers)

    def no_blaster(*_args):
        raise AssertionError("bit-blasted a check the split decides")
    monkeypatch.setattr(solve_mod, "Blaster", no_blaster)
    assert solve(SPLIT_SAT) == "sat\n((x (_ bv2 2)) (y (_ bv0 2)))\n"
    assert solve(SPLIT_UNSAT) == "unsat\n"
    assert answers == Counter(sat=1, unsat=1)


def test_the_split_reads_the_deadline_before_each_leaf(monkeypatch):
    """Past the deadline the split answers unknown, with the reason
    bit-blasting gives."""
    answers = Counter()
    counted(monkeypatch, solve_mod, "_split", split_answer, answers)
    for text in (SPLIT_SAT, SPLIT_UNSAT):
        ctx, script = parse_script(text)
        result = solve_commands(ctx, script, DEFAULT_CONFLICT_BUDGET,
                                time.monotonic() - 1)
        assert (result.status, result.reason) == ("unknown", "deadline")
    assert answers == Counter(unknown=2)


# -- deadlines -----------------------------------------------------------------

FACTORING = """
(declare-const x (_ BitVec 32))
(declare-const y (_ BitVec 32))
(assert (bvugt x (_ bv1 32)))
(assert (bvugt y (_ bv1 32)))
(assert (= (bvmul ((_ zero_extend 32) x) ((_ zero_extend 32) y))
           (_ bv%d 64)))
(check-sat)
""" % (65521 * 65519)


def test_deadline_ends_a_hard_check_with_unknown():
    """Factoring a 32-bit semiprime is far beyond the CDCL search in a
    fifth of a second; the deadline stops it."""
    ctx, script = parse_script(FACTORING)
    start = time.monotonic()
    result = solve_commands(ctx, script, DEFAULT_CONFLICT_BUDGET,
                            start + 0.2)
    assert (result.status, result.reason) == ("unknown", "deadline")
    assert time.monotonic() - start < 2.0


WIDE_DIVISION = """
(declare-const x (_ BitVec 256))
(declare-const y (_ BitVec 256))
(assert (bvugt x (_ bv1 256)))
(assert (bvugt y (_ bv1 256)))
(assert (= (bvmul x y) (_ bv%d 256)))
(assert (= (bvudiv (_ bv%d 256) x) y))
(check-sat)
""" % ((1000000007 * 998244353,) * 2)


def test_deadline_holds_while_bit_blasting():
    """A 256-bit multiplier and divider take seconds to bit-blast and load
    into the SAT solver, before CDCL starts; the deadline is read while
    they are built, so the check gives up soon after it."""
    ctx, script = parse_script(WIDE_DIVISION)
    start = time.monotonic()
    result = solve_commands(ctx, script, DEFAULT_CONFLICT_BUDGET,
                            start + 0.2)
    assert (result.status, result.reason) == ("unknown", "deadline")
    assert time.monotonic() - start < 1.0


def test_long_doubling_chain_is_decided_quickly():
    """a_i = a_(i-1) + a_(i-1) for 40 levels: after substitution a_40 is a
    DAG of 40 nodes but 2^40 tree paths, which the occurs check of each
    binding must not walk."""
    lines = ["(declare-const a0 (_ BitVec 8))"]
    for i in range(1, 41):
        lines.append("(declare-const a%d (_ BitVec 8))" % i)
        lines.append("(assert (= a%d (bvadd a%d a%d)))" % (i, i - 1, i - 1))
    lines.append("(assert (= a40 (_ bv0 8)))")
    ctx, script = parse_script("\n".join(lines))
    start = time.monotonic()
    assert solve_commands(ctx, script).status == "sat"
    assert time.monotonic() - start < 1.0


def test_deterministic_output():
    script = """
(declare-const x (_ BitVec 16))
(declare-const y (_ BitVec 16))
(assert (bvugt (bvmul x y) (_ bv500 16)))
(assert (bvult x (_ bv300 16)))
(check-sat)
(get-value (x y))
"""
    assert solve(script) == solve(script)


# -- the process interface ---------------------------------------------------

def run_process(text):
    return subprocess.run([sys.executable, "-m", "minisol.smt"],
                          input=text, capture_output=True, text=True)


def test_process_matches_in_process():
    script = """
(set-option :produce-models true)
(set-logic UFBV)
(declare-const x (_ BitVec 8))
(assert (bvugt x (_ bv250 8)))
(check-sat)
(get-value (x))
"""
    proc = run_process(script)
    assert proc.returncode == 0
    assert proc.stdout == solve_text(script)


def test_process_unsat():
    proc = run_process("""
(declare-const b Bool)
(assert b)
(assert (not b))
(check-sat)
""")
    assert proc.stdout == "unsat\n" and proc.returncode == 0


def test_process_malformed_input_is_an_error():
    proc = run_process("(assert (undeclared_symbol))")
    assert proc.returncode != 0
    assert "error" in proc.stdout
