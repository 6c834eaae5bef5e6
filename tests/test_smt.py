import itertools
import random
import subprocess
import sys
import time

import pytest

from minisol import engine
from minisol.engine import synthesize
from minisol.explorer import Limits
from minisol.smt import solve as solve_mod, solve_text
from minisol.smt.parse import Script, SmtParseError, parse_script
from minisol.smt.solve import (DEFAULT_CONFLICT_BUDGET, _linear_truth,
                               _refuted_linear, solve_commands)
from minisol.smt.terms import Ctx, SmtError, array, bv

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


# -- word-level linear refutation ---------------------------------------------

def evaluate(term, env):
    """Plain evaluation of the linear fragment the refuter reads."""
    op = term.op
    if op == "var":
        return env[term.val]
    if op == "const":
        return term.val[0]
    args = [evaluate(a, env) for a in term.args]
    if op == "not":
        return not args[0]
    if op == "=":
        return args[0] == args[1]
    if op == "distinct":
        return args[0] != args[1]
    if op == "ite":
        return args[1] if args[0] else args[2]
    width = term.sort[1]
    if op == "bvneg":
        return -args[0] & ((1 << width) - 1)
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


@pytest.mark.parametrize("seed", range(30))
def test_linear_refuter_matches_brute_force(seed):
    """Whenever the linear form decides a comparison, it holds (or fails)
    on every assignment of its variables."""
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
        truth = _linear_truth(term, {})
        assert _refuted_linear([term]) == (truth is False)
        if truth is None:
            continue
        decided += 1
        assert all(evaluate(term, env) == truth for env in envs), term
    assert decided


def test_linear_refuter_fixed_cases():
    ctx = Ctx()
    x = ctx.var("x", bv(8))
    c = ctx.var("c", ("bool",))
    one = ctx.const(1, 8)

    def plus(a, k):
        return ctx.mk("bvadd", a, ctx.const(k, 8))

    assert _refuted_linear([ctx.mk("=", plus(plus(x, 1), 1), x)])
    # x + 255 + 1 wraps back to x: true, so not refuted
    wraps = ctx.mk("=", plus(plus(x, 255), 1), x)
    assert _linear_truth(wraps, {}) is True
    assert not _refuted_linear([wraps])
    assert _refuted_linear([ctx.mk("distinct",
                                   ctx.mk("bvsub", plus(x, 1), x), one)])
    # an ite is an atom: the same one on both sides cancels
    ite = ctx.mk("ite", c, x, ctx.var("y", bv(8)))
    assert _refuted_linear([ctx.mk("=", ctx.mk("bvadd", ite, one), ite)])
    assert _refuted_linear([ctx.mk("not", ctx.mk(
        "=", ctx.mk("bvsub", ctx.mk("bvadd", ite, x), x), ite))])
    # a different atom on one side leaves the comparison undecided
    assert _linear_truth(ctx.mk("=", plus(ite, 1), plus(x, 1)), {}) is None


def test_offset_cancelling_check_is_unsat_without_bit_blasting(monkeypatch):
    def no_blaster():
        raise AssertionError("bit-blasted a check the refuter decides")
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
    one solver check, except those whose new node adds no clause to a SAT
    parent and those whose script repeats an earlier one's."""
    real_fold, real_solve = solve_mod._fold, solve_mod.solve_commands
    real_frontier = engine.frontier_script
    seen = set()
    repeats = []
    contexts = {}
    checks = 0
    no_clauses = 0

    def count_empty_frontiers(*args):
        nonlocal no_clauses
        front = real_frontier(*args)
        no_clauses += front is not None and not front.clauses
        return front

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
    monkeypatch.setattr(engine, "frontier_script", count_empty_frontiers)
    result = synthesize(corpus[name], **options)
    hits = sum(reason == "repeated" for *_c, reason in check_log)
    assert checks == result.walks_explored - no_clauses - hits > 0
    assert repeats == []

    (ctx,) = contexts.values()
    outputs = {id(t): t for t in ctx.folded.values()}
    ctx.folded = {}
    assert [t for t in outputs.values() if solve_mod.fold(ctx, t) is not t] \
        == []


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
