import itertools
import random

import pytest

from minisol.cfg import ReversedView
from minisol.encoder import (SatResult, SolverConfig, SolverSession,
                             encode, ssa_number)
from minisol.engine import prepare
from minisol.errors import EncodeError, SolverError
from minisol.explorer import Walk
from minisol.frontend import extract_targets
from minisol.smt.terms import Ctx

from genprog import random_source, random_walk
from ref_oracles import (bundled_solver_command, definition_symbols,
                         forward_encode, forward_ssa_number, frontier_end)

TWO_ASSIGN = """contract T {
    uint256 var_ = 0;

    function f() public {
        var_ = 10;
        var_ = var_ + 20;
    }
}
"""


def forward_walk(graph, stop_fn, stop_line=None):
    """Build the complete walk that runs deployment then one full pass of
    `stop_fn`.  Without a stop line the walk roots at the function's exit
    marker, so every instruction's effect is encoded (the walk root itself
    is never executed)."""
    cfg = graph.fn_cfgs[stop_fn]
    exec_order = [graph.start_id, graph.ctor_cfg.entry_id]
    exec_order += [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
    exec_order += [graph.ctor_cfg.exit_id, graph.constructed_id, cfg.entry_id]
    stopped = False
    for n in cfg.nodes:
        if n.kind == "instr":
            exec_order.append(n.id)
            if stop_line is not None and n.line == stop_line:
                stopped = True
                break
    if not stopped:
        exec_order.append(cfg.exit_id)
    return Walk(tuple(reversed(exec_order)), graph=graph)


def definitions(script):
    """Each defined symbol's defining term, from the `(= sym term)`
    clauses."""
    defined = set(definition_symbols(script))
    return {c.args[0].val: c.args[1] for c in script.clauses
            if c.op == "=" and c.args[0].op == "var"
            and c.args[0].val in defined}


def test_ssa_two_assignments_get_versions():
    _ast, program, graph = prepare(TWO_ASSIGN)
    walk = forward_walk(graph, "f")
    script = ssa_number(walk, program)
    var_defs = [d for d in definition_symbols(script)
                if d.startswith("var_")]
    # numbered back from the walk root: var_!2 = 0 (initializer),
    # var_!1 = 10, var_!0 = <tmp of var_!1 + 20>
    assert var_defs == ["var_!2", "var_!1", "var_!0"]
    defs = definitions(script)
    tmp = defs["var_!0"]
    assert tmp.op == "var"
    add = defs[tmp.val]
    assert add.op == "bvadd" and add.args[0].val == "var_!1"
    assert defs["var_!1"].op == "const" and defs["var_!1"].val[0] == 10


def test_ssa_single_assignment_x_equals_5():
    src = "contract S { uint8 x = 0; function f() public { x = 5; } }"
    _ast, program, graph = prepare(src)
    walk = forward_walk(graph, "f")
    script = ssa_number(walk, program)
    defs = definition_symbols(script)
    assert defs.count("x!0") == 1 and defs.count("x!1") == 1
    assert definitions(script)["x!0"].val == (5, 8)


def single_assignment_ok(script):
    defs = definition_symbols(script)
    return len(defs) == len(set(defs))


def versions_monotone(script):
    """Along execution order each variable's and mapping's defined
    versions strictly decrease: every earlier write gets the next version
    back from the walk root."""
    last = {}
    for sym in definition_symbols(script):
        base, _, ver = sym.rpartition("!")
        ver = int(ver)
        if base in last and ver >= last[base]:
            return False
        last[base] = ver
    return True


def test_listing3_two_transaction_walk(corpus):
    """Two add() calls: balance versions fall monotonically across the
    transactions, and the segments count back from the root: the last
    add() is t0, the first t1, the deployment t2."""
    _ast, program, graph = prepare(corpus["overflow"])
    cfg = graph.fn_cfgs["add"]
    instrs = [n.id for n in cfg.nodes if n.kind == "instr"]
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id]
                  + [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
                  + [graph.ctor_cfg.exit_id, graph.constructed_id]
                  + [cfg.entry_id] + instrs + [cfg.exit_id,
                                               graph.tx_processed_id,
                                               graph.constructed_id,
                                               cfg.entry_id] + instrs
                  + [cfg.exit_id])
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    script = ssa_number(walk, program)
    assert single_assignment_ok(script) and versions_monotone(script)
    balance_defs = [d for d in definition_symbols(script)
                    if d.startswith("sellerBalance!")]
    assert balance_defs == ["sellerBalance!2", "sellerBalance!1",
                            "sellerBalance!0"]
    txs = script.transactions
    assert [t.fn for t in txs] == ["<constructor>", "add", "add"]
    assert [t.value for t in txs] == ["msg.value!t2", "msg.value!t1",
                                      "msg.value!t0"]
    assert txs[0].is_deployment


def test_local_read_before_write_is_an_error():
    src = """contract L {
    uint256 g = 0;
    function f() public {
        uint256 a = 1;
        g = a;
    }
}
"""
    _ast, program, graph = prepare(src)
    # complete walk whose function segment starts after the local's def:
    cfg = graph.fn_cfgs["f"]
    instrs = [n.id for n in cfg.nodes if n.kind == "instr"]
    # drop the local-defining instruction but keep the entry marker, making
    # the read genuinely undefined on a non-partial segment
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id]
                  + [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
                  + [graph.ctor_cfg.exit_id, graph.constructed_id,
                     cfg.entry_id] + instrs[1:] + [cfg.exit_id])
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    from minisol.errors import EncodeError
    with pytest.raises(EncodeError):
        ssa_number(walk, program)


def test_frame_axiom_text_shape(corpus):
    _ast, program, graph = prepare(corpus["guess_check"])
    cfg = graph.fn_cfgs["guess"]
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id,
                   graph.ctor_cfg.exit_id, graph.constructed_id,
                   cfg.entry_id]
                  + [n.id for n in cfg.nodes if n.kind == "instr"]
                  + [cfg.exit_id])
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    script = ssa_number(walk, program)
    smt = encode(script)
    array = "(Array (_ BitVec 256) (_ BitVec 256))"
    assert "(set-logic QF_ABV)" in smt.text
    assert "(declare-const dataStorage!0 %s)" % array in smt.text
    # the write defines the generation live at the root from an earlier one
    assert ("(assert (= dataStorage!0 (store dataStorage!1 index!t0!0 "
            "value!t0!0)))" in smt.text)
    # zero-initialized storage for the complete walk
    assert ("(assert (= dataStorage!1 ((as const %s) #%s)))"
            % (array, "x" + "0" * 64) in smt.text)
    assert "forall" not in smt.text and "declare-fun" not in smt.text
    # map generations are declared, but a model values only scalars
    assert "dataStorage" not in smt.text.splitlines()[-1]


def test_never_written_map_read_zero_init(corpus):
    _ast, program, graph = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    walk = forward_walk(graph, "check", stop_line=target.line)
    script = ssa_number(walk, program)
    smt = encode(script)
    assert ("(= dataStorage!0 ((as const (Array (_ BitVec 256) "
            "(_ BitVec 256))) #x" in smt.text)


def run_check(script):
    smt = encode(script)
    return SolverSession().check(smt), smt


def test_check_sat_contradiction_unsat():
    src = """contract C {
    uint8 x = 0;
    function f(uint8 v) public {
        if (v > 10)
            if (v < 10)
                x = v;
    }
}
"""
    _ast, program, graph = prepare(src)
    target_node = graph.target_node(6)
    rv = ReversedView(graph)

    def backward_complete(node):
        nodes = [node]
        while nodes[-1] != graph.start_id:
            succs = sorted(rv.successors(nodes[-1]))
            nxt = succs[0]
            for s in succs:
                kind = graph.node(s).kind
                if kind in ("instr", "entry", "constructed", "exit", "start"):
                    nxt = s
                    break
            nodes.append(nxt)
        return Walk(tuple(nodes), graph=graph)

    walk = backward_complete(target_node)
    result, _ = run_check(ssa_number(walk, program))
    assert result.status == "unsat"


def test_overflow_walk_sat_with_wraparound_model(corpus):
    """Brute force over uint16 pairs confirms a wrapping model must exist,
    and the solver's model wraps."""
    assert any(((a + b) & 0xFFFF) < a
               for a in (65535, 32768) for b in (1, 32768))
    src = corpus["overflow"]
    _ast, program, graph = prepare(src)
    target = extract_targets(src)[0]
    cfg = graph.fn_cfgs["add"]
    instrs = [n.id for n in cfg.nodes if n.kind == "instr"]
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id]
                  + [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
                  + [graph.ctor_cfg.exit_id, graph.constructed_id]
                  + [cfg.entry_id] + instrs + [cfg.exit_id,
                                               graph.tx_processed_id,
                                               graph.constructed_id,
                                               cfg.entry_id, instrs[0]])
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    script = ssa_number(walk, program, safety=target.safety)
    result, _ = run_check(script)
    assert result.status == "sat"
    first, second = script.transactions[1:]
    assert (first.params[0][1], second.params[0][1]) \
        == ("value!t1!0", "value!t0!0")
    v1 = result.model[first.params[0][1]]
    v2 = result.model[second.params[0][1]]
    assert ((v1 + v2) & 0xFFFF) < v1


def test_guess_check_path_forces_key_and_value(corpus):
    """Exhausting the small key/value domain shows (10, 1) is the only
    write satisfying the read; the model must agree."""
    domain = range(12)
    sats = [(i, v) for i, v in itertools.product(domain, domain)
            if (1 if i == 10 else 0) * v == v and i == 10 and v == 1]
    assert sats == [(10, 1)]
    src = corpus["guess_check"]
    _ast, program, graph = prepare(src)
    target = extract_targets(src)[0]
    guess = graph.fn_cfgs["guess"]
    check = graph.fn_cfgs["check"]
    check_instrs = [n.id for n in check.nodes if n.kind == "instr"]
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id,
                   graph.ctor_cfg.exit_id, graph.constructed_id,
                   guess.entry_id]
                  + [n.id for n in guess.nodes if n.kind == "instr"]
                  + [guess.exit_id, graph.tx_processed_id,
                     graph.constructed_id, check.entry_id]
                  + check_instrs[:4])         # through the taken true branch
    assert graph.node(check_instrs[3]).line == target.line
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    script = ssa_number(walk, program, safety=target.safety)
    result, _ = run_check(script)
    assert result.status == "sat"
    assert result.model["index!t1!0"] == 10
    assert result.model["value!t1!0"] == 1


def test_wrap_65535_plus_1_is_zero():
    src = """contract W {
    uint16 x = 0;
    function f() public {
        x = 65535;
        x += 1;
    }
}
"""
    _ast, program, graph = prepare(src)
    walk = forward_walk(graph, "f")
    script = ssa_number(walk, program)
    result, _ = run_check(script)
    assert result.status == "sat"
    # x!0 is the version the last write defines: 65535 + 1
    assert result.model["x!1"] == 65535 and result.model["x!0"] == 0


def test_aborted_segment_rolls_back_state(corpus):
    """A walk through a reverting transaction discards its writes: later
    reads see the pre-transaction versions."""
    src = """contract R {
    uint256 g = 0;
    function f(uint256 v) public {
        g = v;
        require(v > 10);
    }
}
"""
    _ast, program, graph = prepare(src)
    cfg = graph.fn_cfgs["f"]
    by_kind = {}
    for n in cfg.nodes:
        if n.kind == "instr":
            by_kind.setdefault(n.instr.kind, []).append(n.id)
    sink = by_kind["revert_sink"][0]
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id]
                  + [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
                  + [graph.ctor_cfg.exit_id, graph.constructed_id,
                     cfg.entry_id]
                  + by_kind["assign"][:1] + by_kind["binary"][:1]
                  + by_kind["require"] + [sink]
                  + [graph.tx_processed_id, graph.constructed_id,
                     cfg.entry_id] + by_kind["assign"][:1])
    walk = Walk(tuple(reversed(exec_order)), graph=graph)
    script = ssa_number(walk, program)
    assert script.transactions[1].aborted
    # the aborted write owns a private version, g!1; the constructor
    # defines g!2, which the link equates with g!0, live after the revert
    defs = definition_symbols(script)
    assert defs.count("g!1") == 1 and defs.count("g!2") == 1
    smt = encode(script)
    assert "(assert (= g!0 g!2))" in smt.text
    result = SolverSession().check(smt)
    assert result.status == "sat"
    assert result.model["g!1"] <= 10 and result.model["g!0"] == 0


def test_prefix_unsat_stays_unsat_and_assertions_nest(corpus):
    """Extensions only add conjuncts: numbered in one context, a prefix's
    clauses (less the ones that move with its frontier) are the full
    walk's last clauses, term for term, and an UNSAT prefix can never
    become SAT."""
    rng = random.Random(7)
    nested = 0
    for name in ("guess_check", "overflow", "multi_tx"):
        _ast, program, graph = prepare(corpus[name])
        for _ in range(12):
            walk = random_walk(rng, graph, max_len=30)
            ctx = Ctx()
            full = ssa_number(walk, program, ctx=ctx)
            for cut in (2, max(2, len(walk.nodes) // 2)):
                if cut >= len(walk.nodes):
                    continue
                pre = ssa_number(Walk(walk.nodes[:cut], graph=graph),
                                 program, ctx=ctx)
                kept = pre.clauses[len(pre.moving):]
                assert len(kept) <= len(full.clauses)
                tail = full.clauses[len(full.clauses) - len(kept):]
                assert all(a is b for a, b in zip(tail, kept)), (name, cut)
                nested += 1
                r_pre, _ = run_check(pre)
                if r_pre.status == "unsat":
                    r_full, _ = run_check(full)
                    assert r_full.status == "unsat"
    assert nested > 40


def _random_backward_walk(rng, graph, root, max_len, revert=False):
    """A random walk back from `root`; with `revert`, it steps back from
    constructed into an earlier transaction, and into one that reverts,
    whenever it can."""
    rv = ReversedView(graph)
    nodes = [root]
    for _ in range(rng.randrange(1, max_len)):
        succs = sorted(rv.successors(nodes[-1]))
        if not succs:
            break
        if revert:
            succs = [n for n in succs if graph.node(n).is_revert_sink
                     or n == graph.tx_processed_id] or succs
        nodes.append(rng.choice(succs))
        if nodes[-1] == graph.start_id:
            break
    return Walk(tuple(nodes), graph=graph)


def test_child_clauses_are_parent_clauses_plus_new_node(corpus):
    """The basis for checking one node per extension: a child's clauses
    after `frontier_end(child)` are its parent's clauses (less the ones
    that move with the parent's frontier), term for term; its frontier is
    its moving clauses plus the new node's; a walk rooted at the target
    ends in the safety condition, the root's one clause.
    Numbering the child from its parent's numbering or from the root gives
    the same terms."""
    rng = random.Random(11)
    checked = 0
    for name in ("guess_check", "overflow", "two_tx_overflow", "token",
                 "multi_tx"):
        target = extract_targets(corpus[name])[0]
        _ast, program, graph = prepare(corpus[name])
        instrs = [n.id for n in graph.nodes if n.kind == "instr"]
        for i in range(24):
            root = graph.target_node(target.line) if i % 2 \
                else rng.choice(instrs)
            safety = target.safety if i % 2 else None
            walk = _random_backward_walk(rng, graph, root, 40)
            ctx = Ctx()
            for k in range(1, len(walk.nodes)):
                try:
                    parent = ssa_number(Walk(walk.nodes[:k], graph), program,
                                        ctx=ctx, safety=safety)
                    child = ssa_number(Walk(walk.nodes[:k + 1], graph,
                                            SatResult("sat", numbering=(
                                                parent.numbering))),
                                       program)
                    fresh = ssa_number(Walk(walk.nodes[:k + 1], graph),
                                       program, ctx=ctx, safety=safety)
                except EncodeError:
                    continue
                assert child.numbering.length == k + 1
                assert [id(c) for c in child.clauses] \
                    == [id(c) for c in fresh.clauses]
                node = child.numbering.link.clauses
                assert child.clauses[:frontier_end(child)] \
                    == list(child.moving) + list(node)
                rest = child.clauses[frontier_end(child):]
                kept = parent.clauses[len(parent.moving):]
                assert len(rest) == len(kept) and all(
                    a is b for a, b in zip(rest, kept)), \
                    (name, walk.nodes[:k + 1])
                if safety is not None:
                    root_link = list(child.links())[-1]
                    assert len(root_link.clauses) == 1
                    assert child.clauses[-1] is root_link.clauses[0] \
                        is parent.clauses[-1]
                checked += 1
    assert checked > 1000


def test_write_in_a_reverted_segment_moves_the_link_and_is_solved(corpus):
    """A reverting transaction's writes go to private versions, and its
    link equates the version live after it with the private one live at
    the frontier.  A write passed on the way back moves the link: the
    parent's link clause is no clause of the child, whose own link is a
    frontier clause.  It shares the private and the outside version with
    the rest, so the extension is solved in full."""
    src = """contract R {
    uint256 g = 0;
    uint256 x = 0;
    function f(uint256 v) public {
        g = v;
        require(g > 10);
    }
    function h() public {
        uint256 y = g;
        x = y;
    }
}
"""
    _ast, program, graph = prepare(src)
    f, h = graph.fn_cfgs["f"], graph.fn_cfgs["h"]
    sink = next(n.id for n in f.nodes if n.is_revert_sink)
    body = [n.id for n in f.nodes if n.kind == "instr" and n.id != sink]
    h_body = [n.id for n in h.nodes if n.kind == "instr"]
    # executed: g = v; $t1 = g > 10; require fails; revert; then h
    exec_order = body + [sink, graph.tx_processed_id, graph.constructed_id,
                         h.entry_id] + h_body
    nodes = tuple(reversed(exec_order))
    ctx = Ctx()
    parent = ssa_number(Walk(nodes[:-1], graph), program, ctx=ctx)
    child = ssa_number(Walk(nodes, graph), program, ctx=ctx)
    assert parent.transactions[0].aborted and child.transactions[0].aborted
    text = encode(parent).text + encode(child).text
    assert "(assert (= g!0 g!1))" in text and "(assert (= g!0 g!2))" in text
    parent_link, child_link = parent.moving[-1], child.moving[-1]
    assert parent_link is not child_link
    assert all(c is not parent_link for c in child.clauses)
    assert "g!1" in definition_symbols(child)
    assert SolverSession().check(encode(child)).status == "sat"
    # once the entry is numbered, the link is the entry's own clause
    entry = ssa_number(Walk(nodes + (f.entry_id,), graph), program, ctx=ctx)
    assert entry.moving == [] and child_link in entry.numbering.link.clauses


def _walks_for_reference(rng, corpus):
    """(program, walk, safety) triples: random backward walks over corpus
    contracts, half rooted at the target, and over generated programs."""
    for name in ("guess_check", "two_tx_overflow", "token", "multi_tx",
                 "address_scores", "loop_sum"):
        target = extract_targets(corpus[name])[0]
        _ast, program, graph = prepare(corpus[name])
        root = graph.target_node(target.line)
        instrs = [n.id for n in graph.nodes if n.kind == "instr"]
        for i in range(30):
            yield program, _random_backward_walk(rng, graph, root, 45,
                                                 revert=i % 2), target.safety
            yield program, _random_backward_walk(
                rng, graph, rng.choice(instrs), 45, revert=True), None
    for seed in range(20):
        _ast, program, graph = prepare(random_source(700 + seed))
        for _ in range(8):
            yield program, random_walk(rng, graph, max_len=40), None


def _pinned(smt, pins):
    """`smt` with each symbol of `pins` fixed to its value."""
    from minisol.smt.parse import Script
    from minisol.smt.terms import BOOL
    ctx, decls = smt.ctx, smt.decls
    extra = []
    for name, value in pins.items():
        sort = decls[name]
        extra.append(ctx.mk("=", ctx.var(name, sort),
                            ctx.cbool(bool(value)) if sort == BOOL
                            else ctx.const(value, sort[1])))
    return Script(ctx, smt.asserts + extra,
                  symbols=lambda: {name: ctx.var(name, sort)
                                   for name, sort in decls.items()})


def _input_symbols(script):
    """A walk's inputs in execution order: each transaction's parameters
    and environment."""
    return [sym for tx in script.transactions
            for sym in [s for _p, s in tx.params]
            + [tx.sender, tx.value, tx.timestamp, tx.gas]]


def test_backward_numbering_is_equisatisfiable_with_forward(corpus):
    """The forward numbering the encoder used to do, kept as a reference,
    and the backward numbering give every walk the same answer: both
    raise, or both scripts are SAT, or both UNSAT.  On a complete walk,
    whose transactions' inputs decide everything, each script stays SAT
    with its inputs pinned to the other's model.  The walks go through
    reverting transactions, partial segments and map writes."""
    rng = random.Random(5)
    session = SolverSession()
    seen = {"sat": 0, "unsat": 0, "unknown": 0, "reverted": 0, "partial": 0,
            "maps": 0, "complete": 0}
    for program, walk, safety in _walks_for_reference(rng, corpus):
        try:
            script = ssa_number(walk, program, safety=safety)
            back = encode(script)
        except EncodeError:
            with pytest.raises(EncodeError):
                forward_encode(forward_ssa_number(walk, program), safety,
                               program)
            continue
        ref_script = forward_ssa_number(walk, program)
        ref = forward_encode(ref_script, safety, program)
        answers = session.check(back), session.check(ref)
        statuses = tuple(a.status for a in answers)
        assert statuses[0] == statuses[1], walk.nodes
        seen[statuses[0]] += 1
        seen["reverted"] += any(t.aborted for t in script.transactions)
        seen["partial"] += any(t.partial for t in script.transactions)
        seen["maps"] += any(t.sort[0] == "array"
                            for t in script.symbols.values())
        if script.complete and statuses[0] == "sat":
            seen["complete"] += 1
            sides = [(back, script, answers[0].model),
                     (ref, ref_script, answers[1].model)]
            for (_smt, mine, model), (theirs, their_script, _m) in (
                    sides, sides[::-1]):
                pins = dict(zip(_input_symbols(their_script),
                                (model[sym] for sym in _input_symbols(mine))))
                assert session.check(_pinned(theirs, pins)).status == "sat", \
                    walk.nodes
    assert seen.pop("unknown") == 0
    assert min(seen.values()) >= 30, seen


def test_emit_smt_dumps_are_deterministic(tmp_path, corpus):
    src = corpus["ctor_target"]
    _ast, program, graph = prepare(src)
    target = extract_targets(src)[0]

    def run(out_dir):
        session = SolverSession(SolverConfig(emit_dir=str(out_dir)))
        from minisol.explorer import HEURISTICS, Limits, \
            find_minimal_satisfiable_walk

        def check(walk):
            return session.check(encode(ssa_number(
                walk, program, safety=target.safety)))

        find_minimal_satisfiable_walk(graph, target,
                                      HEURISTICS["floyd-warshall"], Limits(),
                                      check=check)
        return sorted(p.name for p in out_dir.iterdir()), \
            [p.read_bytes() for p in sorted(out_dir.iterdir())]

    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    names1, bytes1 = run(d1)
    names2, bytes2 = run(d2)
    assert names1 == names2 and bytes1 == bytes2
    assert names1[0] == "000001.smt2"


def test_solver_missing_raises_distinct_error(corpus):
    _ast, program, graph = prepare(corpus["ctor_target"])
    walk = forward_walk(graph, "touch")
    smt = encode(ssa_number(walk, program))
    session = SolverSession(SolverConfig(command="/no/such/solver"))
    with pytest.raises(SolverError) as err:
        session.check(smt)
    assert err.value.kind == "missing"


def test_external_process_route_equals_in_process(corpus):
    _ast, program, graph = prepare(corpus["guess_check"])
    walk = forward_walk(graph, "guess")
    smt = encode(ssa_number(walk, program))
    in_proc = SolverSession().check(smt)
    ext = SolverSession(SolverConfig(command=bundled_solver_command()))
    out = ext.check(smt)
    assert out.status == in_proc.status == "sat"
    assert out.model == in_proc.model


@pytest.mark.parametrize("seed", range(10))
def test_random_walks_keep_ssa_invariants(seed, corpus):
    rng = random.Random(seed)
    source = random_source(300 + seed)
    _ast, program, graph = prepare(source)
    for _ in range(10):
        walk = random_walk(rng, graph)
        script = ssa_number(walk, program)
        assert single_assignment_ok(script)
        assert versions_monotone(script)


def test_parse_solver_output_accepts_hex_and_binary_values(corpus):
    """External solvers answer get-value with #x / #b literals; the model
    parser must take them as well as (_ bvN W)."""
    from minisol.encoder import parse_solver_output
    _ast, program, graph = prepare(corpus["ctor_target"])
    walk = forward_walk(graph, "touch")
    smt = encode(ssa_number(walk, program))
    names = smt.query_texts
    fake_values = ["(%s %s)" % (sym, "#x%02x" % (i % 7) if i % 2 else "#b1")
                   for i, sym in enumerate(names)]
    output = "sat\n(%s)\n" % " ".join(fake_values)
    result = parse_solver_output(output, smt)
    assert result.status == "sat"
    assert result.model == {sym: i % 7 if i % 2 else 1
                            for i, sym in enumerate(names)}


def test_parse_solver_output_rejects_truncated_model(corpus):
    from minisol.encoder import parse_solver_output
    from minisol.errors import EncodeError, SolverError
    _ast, program, graph = prepare(corpus["ctor_target"])
    walk = forward_walk(graph, "touch")
    smt = encode(ssa_number(walk, program))
    with pytest.raises(SolverError) as err:
        parse_solver_output("sat\n((x!1 (_ bv0 8)))\n", smt)
    assert err.value.kind == "malformed"
    with pytest.raises(SolverError):
        parse_solver_output("flub\n", smt)


def _byte_and_flag():
    """A script querying an 8-bit symbol `a`, then a Bool `b`."""
    from minisol.smt.parse import Script
    from minisol.smt.terms import BOOL, bv
    ctx = Ctx()
    a, b = ctx.var("a", bv(8)), ctx.var("b", BOOL)
    return Script(ctx, [ctx.mk("=", b, ctx.mk("bvult", a, a))],
                  symbols=lambda: {"a": a, "b": b})


def test_parse_solver_output_reads_each_query_by_name_and_sort():
    from minisol.encoder import parse_solver_output
    smt = _byte_and_flag()
    for answer in ("((a #xff) (b false))", "((a (_ bv255 8)) (b false))",
                   "((a #b11111111)) ((b false))", "((a 255) (b false))"):
        result = parse_solver_output("sat\n%s\n" % answer, smt)
        assert result.model == {"a": 255, "b": 0}, answer
    result = parse_solver_output("sat\n((|a| #x00) (|b| true))\n", smt)
    assert result.model == {"a": 0, "b": 1}


@pytest.mark.parametrize("answer", [
    "((b false) (a #x01))",              # swapped names
    "((c #x01) (b false))",              # a name no query has
    "((a #x01 #x02) (b false))",         # a pair of three
    "((a (_ bv300 8)) (b false))",       # too large for 8 bits
    "((a (_ bv1 16)) (b false))",        # another width
    "((a #x100) (b false))",
    "((a #b111111111) (b false))",
    "((a 256) (b false))",
    "((a -1) (b false))",
    "((a #xzz) (b false))",
    "((a true) (b false))",              # a Bool for a bitvector
    "((a #x01) (b #xff))",               # a bitvector for a Bool
    "((a #x01) (b 1))",
    "((a #x01) (b (_ bv1 1)))",
])
def test_parse_solver_output_rejects_answers_that_fit_no_query(answer):
    """Each get-value pair must name the symbol queried in its place, with
    a value of that symbol's sort."""
    from minisol.encoder import parse_solver_output
    with pytest.raises(SolverError) as err:
        parse_solver_output("sat\n%s\n" % answer, _byte_and_flag())
    assert err.value.kind == "malformed"


@pytest.mark.parametrize("name", ["guess_check", "multi_tx", "token"])
def test_in_process_answers_equal_rendered_text_answers(name, corpus):
    """Every check of a bounded search gets the same status, and on sat the
    same value for every symbol, from the in-process terms as from the
    rendered SMT-LIB text solved and parsed back."""
    from minisol import smt
    from minisol.encoder import parse_solver_output
    from minisol.explorer import (HEURISTICS, Limits,
                                  find_minimal_satisfiable_walk)
    source = corpus[name]
    target = extract_targets(source)[0]
    _ast, program, graph = prepare(source)
    session = SolverSession()
    statuses = []

    def check(walk):
        script = encode(ssa_number(walk, program, safety=target.safety))
        direct = session.check(script)
        via_text = parse_solver_output(smt.solve_text(script.text), script)
        assert via_text.status == direct.status
        if direct.status == "sat":
            assert direct.model == via_text.model
            assert set(direct.model) == set(script.query_texts)
        statuses.append(direct.status)
        return direct

    find_minimal_satisfiable_walk(graph, target, HEURISTICS["floyd-warshall"],
                                  Limits(max_walks=200), check=check)
    assert "sat" in statuses


def test_checked_constructor_rejects_ill_sorted_encoder_terms():
    """The numbering builds its terms through ``Ctx.checked``: an
    instruction whose operands have different widths, or a branch on a
    non-Bool operand, raises instead of reaching the solver."""
    from dataclasses import replace
    from minisol.ir import Operand
    from minisol.lang import U8, U256
    from minisol.smt import SmtError
    src = """contract C {
    uint8 a = 0;
    uint256 b = 0;
    uint256 c = 0;
    function f() public {
        if (b > 1)
            c = b + b;
    }
}
"""
    _ast, program, graph = prepare(src)
    nodes = {n.instr.kind: n for n in graph.fn_cfgs["f"].nodes
             if n.kind == "instr"}

    def number_with(kind, arg):
        node = nodes[kind]
        original = node.instr
        node.instr = replace(original, args=(arg,) + original.args[1:])
        try:
            later = next(n for n in graph.successors(node.id)
                         if graph.node(n).kind == "instr")
            ssa_number(Walk((later, node.id), graph), program)
        finally:
            node.instr = original

    with pytest.raises(SmtError, match="width mismatch in bvadd"):
        number_with("binary", Operand("state", U8, name="a"))
    with pytest.raises(SmtError, match="assert needs a Bool term"):
        number_with("condition", Operand("state", U256, name="b"))
