import math
import time

import pytest

from minisol.cfg import ReversedView
from minisol.encoder import SatResult, SolverSession, encode, ssa_number
from minisol.engine import prepare, synthesize
from minisol.errors import ConfigError
from minisol.explorer import (HEURISTICS, Limits, WalkTree, build_context,
                              find_minimal_satisfiable_walk,
                              distances_to_start, node_facts,
                              register_heuristic)
from minisol.frontend import extract_targets


def explore(source, *, heuristic="floyd-warshall", limits=None,
            lazy_check=False, spy=None):
    targets = extract_targets(source)
    target = targets[0]
    _ast, program, graph = prepare(source)
    ctx = build_context(graph, target.safety)
    session = SolverSession()

    def check(walk):
        if spy is not None:
            spy(walk)
        return session.check(encode(ssa_number(walk, program,
                                               safety=target.safety)))

    result = find_minimal_satisfiable_walk(
        graph, target, HEURISTICS[heuristic], limits or Limits(),
        check=check, context=ctx, lazy_check=lazy_check)
    return result, graph, program


def test_distance_table_basics():
    _ast, _program, graph = prepare("contract C {}")
    rv = ReversedView(graph)
    to_start = distances_to_start(rv)
    assert to_start[graph.start_id] == 0
    # hand count on the six-node graph: constructed -> ctor exit -> ctor
    # entry -> start on the reversed edges
    assert to_start[graph.constructed_id] == 3
    assert to_start[graph.end_id] > 0


def test_fw_cost_depth_plus_distance(corpus):
    source = corpus["multi_tx"]
    _ast, program, graph = prepare(source)
    target = extract_targets(source)[0]
    ctx = build_context(graph, target.safety)
    h = HEURISTICS["floyd-warshall"](ctx)

    class Leaf:
        depth = 4

    start = graph.start_id
    expected = 4 + ctx.to_start[graph.constructed_id]
    assert h(None, Leaf(), graph.constructed_id) == expected
    # start node itself: cost reduces to the walk depth
    assert h(None, Leaf(), start) == 4

    # a node with no backward path to start scores infinity; in a contract
    # with no public function, tx_processed and end are exactly that
    _a2, _p2, empty = prepare("contract E {}")
    ctx2 = build_context(empty, None)
    h2 = HEURISTICS["floyd-warshall"](ctx2)
    assert math.isinf(h2(None, Leaf(), empty.end_id))
    assert math.isinf(h2(None, Leaf(), empty.tx_processed_id))


def test_fw_prefers_constructor_over_loop(corpus):
    """From check's condition the route toward the deployment scores lower
    than re-entering bid bodies through tx_processed (hand-counted on the
    reversed graph: the constructor path is the short way to start)."""
    source = corpus["multi_tx"]
    _ast, _program, graph = prepare(source)
    ctx = build_context(graph, None)
    h = HEURISTICS["floyd-warshall"](ctx)

    class Leaf:
        depth = 5

    ctor_exit = graph.ctor_cfg.exit_id
    cost_ctor = h(None, Leaf(), ctor_exit)
    cost_loop = h(None, Leaf(), graph.tx_processed_id)
    assert cost_ctor < cost_loop


def _instr(graph, fn, reads=None, writes=None):
    """The id of `fn`'s instruction node that reads (or writes) exactly
    the state variables given."""
    (node,) = [n.id for n in graph.fn_cfgs[fn].nodes if n.kind == "instr"
               and (reads is None or n.instr.state_reads() == reads)
               and (writes is None or n.instr.state_writes() == writes)]
    return node


def test_state_var_heuristic_infinity_and_tie_break(corpus):
    """The heuristic derives the state variables a walk reads before any
    write of them (its pending reads) from the walk tree: a walk rooted at
    check()'s comparison, with no safety condition, has counter and
    threshold pending."""
    source = corpus["multi_tx"]
    _ast, program, graph = prepare(source)
    ctx = build_context(graph, None)
    sv = HEURISTICS["state-var"](ctx)
    fw = HEURISTICS["floyd-warshall"](ctx)
    tree = WalkTree(_instr(graph, "check", reads=["counter", "threshold"]))
    leaf = tree.extend(0, graph.fn_cfgs["check"].entry_id)

    check_exit = graph.fn_cfgs["check"].exit_id
    bid_exit = graph.fn_cfgs["bid"].exit_id
    ctor_exit = graph.ctor_cfg.exit_id
    # check() writes nothing pending -> infinity
    assert math.isinf(sv(tree, leaf, check_exit))
    # bid() writes counter -> finite and equal to the FW cost
    assert sv(tree, leaf, bid_exit) == fw(tree, leaf, bid_exit)
    # once the walk passes bid's write of counter, only threshold is
    # pending, which bid() never writes and the constructor does
    wrote = tree.extend(leaf.idx, _instr(graph, "bid", writes=["counter"]))
    assert math.isinf(sv(tree, wrote, bid_exit))
    assert sv(tree, wrote, ctor_exit) == fw(tree, wrote, ctor_exit)
    # the leaf's own pending reads are unchanged by its child's
    assert sv(tree, leaf, bid_exit) == fw(tree, leaf, bid_exit)

    # degenerate case: no pending reads, identical costs everywhere
    sv = HEURISTICS["state-var"](ctx)
    tree = WalkTree(graph.fn_cfgs["check"].exit_id)
    no_pending = tree.extend(0, graph.fn_cfgs["bid"].exit_id)
    for node in range(len(graph.nodes)):
        assert sv(tree, no_pending, node) == fw(tree, no_pending, node)


def test_safety_reads_seed_pending(corpus):
    source = corpus["multi_tx"]
    target = extract_targets(source)[0]
    _ast, _program, graph = prepare(source)
    ctx = build_context(graph, target.safety)
    assert ctx.safety_reads == {"maximum_bid"}


def test_node_facts_are_the_graphs_and_computed_once(corpus):
    """A node's facts, on token's graph: its sorted reversed-graph
    successors, its instruction's state reads and writes, its function's
    writes (None outside a function); none is computed before it is read,
    and a second read gives the same object."""
    _ast, program, graph = prepare(corpus["token"])
    ctx = build_context(graph, None)
    assert ctx.facts == [None] * len(graph.nodes)
    rv = ReversedView(graph)
    writes = {fn.name: fn.state_writes() for fn in program.all_functions()}
    for node in graph.nodes:
        facts = node_facts(ctx, node.id)
        assert facts.options == tuple(sorted(rv.successors(node.id)))
        instr = node.instr if node.kind == "instr" else None
        assert facts.reads == set(instr.state_reads() if instr else ())
        assert facts.writes == set(instr.state_writes() if instr else ())
        assert facts.fn_writes == (None if node.fn is None
                                   else writes.get(node.fn, set()))
        assert node_facts(ctx, node.id) is facts is ctx.facts[node.id]
    assert any(f.reads for f in ctx.facts) and any(f.writes
                                                   for f in ctx.facts)


def test_guess_check_concretizes_to_expected_calls(engine_cache):
    result = engine_cache.run("guess_check")
    assert result.status == "found"
    seq = result.sequence
    assert [tx.function for tx in seq] == ["<constructor>", "guess", "check"]
    assert seq.transactions[1].args == [10, 1]


def test_constructor_only_walk(engine_cache):
    result = engine_cache.run("ctor_target")
    assert result.status == "found"
    assert [tx.function for tx in result.sequence] == ["<constructor>"]
    # zero post-deployment transactions
    assert len(result.sequence) == 1


def test_contradiction_target_not_found(engine_cache):
    result = engine_cache.run("contradiction")
    assert result.status == "notfound"
    assert result.reason == "exhausted"


def test_walk_budget_respected(corpus):
    result, _g, _p = explore(corpus["multi_tx"],
                             limits=Limits(max_walks=5))
    assert result.status == "notfound" and result.reason == "budget"
    assert result.walks_explored <= 5


def test_check_out_of_time_ends_the_search_with_timeout(corpus):
    """A check that gives up at the deadline ends the search at once, not
    after the rest of the frontier is tried."""
    _ast, _program, graph = prepare(corpus["multi_tx"])
    target = extract_targets(corpus["multi_tx"])[0]
    deadline = time.monotonic() + 0.05

    def check(walk):
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return SatResult("unknown", reason="deadline")

    result = find_minimal_satisfiable_walk(
        graph, target, HEURISTICS["floyd-warshall"], Limits(), check=check,
        deadline=deadline)
    assert (result.status, result.reason) == ("notfound", "timeout")
    assert result.walks_explored == 1


def test_walk_length_budget(corpus):
    result, _g, _p = explore(corpus["multi_tx"],
                             limits=Limits(max_walk_len=6))
    assert result.status == "notfound"
    assert result.reason in ("exhausted", "budget")


def test_every_checked_walk_is_a_reversed_path(corpus):
    checked = []
    result, graph, _p = explore(corpus["guess_check"], spy=checked.append)
    rv_edges = set(ReversedView(graph).edges())
    for walk in checked:
        for a, b in zip(walk.nodes, walk.nodes[1:]):
            assert (a, b) in rv_edges
    assert result.status == "found"
    assert all(len(w.nodes) <= Limits().max_walk_len for w in checked)


def test_pruning_soundness_no_unsat_prefix_extended(corpus):
    """Once a prefix came back UNSAT, no checked walk may extend it."""
    outcomes = []
    _ast, program, graph = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    ctx = build_context(graph, target.safety)
    session = SolverSession()

    def check(walk):
        result = session.check(encode(ssa_number(walk, program,
                                                 safety=target.safety)))
        outcomes.append((walk.nodes, result.status))
        return result

    find_minimal_satisfiable_walk(graph, target,
                                  HEURISTICS["floyd-warshall"], Limits(),
                                  check=check, context=ctx)
    unsat_prefixes = [nodes for nodes, status in outcomes
                      if status == "unsat"]
    for nodes, _status in outcomes:
        for prefix in unsat_prefixes:
            assert not (len(nodes) > len(prefix)
                        and nodes[:len(prefix)] == prefix)


def test_first_found_walk_is_deterministic(corpus):
    r1, _g, _p = explore(corpus["two_tx_overflow"])
    r2, _g2, _p2 = explore(corpus["two_tx_overflow"])
    assert r1.walk.nodes == r2.walk.nodes
    assert r1.walks_explored == r2.walks_explored


def test_all_sat_prefixes_give_shortest_walk():
    """With every prefix SAT, the FW heuristic returns a walk whose node
    count equals the shortest reversed-graph distance plus one."""
    src = """contract S {
    uint256 hits = 0;
    function poke() public {
        hits += 1;  // @target
    }
}
"""
    result, graph, _program = explore(src)
    assert result.status == "found"
    ctx = build_context(graph, None)
    root = graph.target_node(4)
    shortest = ctx.to_start[root]
    assert len(result.walk.nodes) == shortest + 1


def test_lazy_check_mode_still_finds(corpus):
    eager, _g, _p = explore(corpus["guess_check"])
    lazy, _g2, _p2 = explore(corpus["guess_check"], lazy_check=True)
    assert lazy.status == "found"
    assert lazy.walks_explored < eager.walks_explored
    assert lazy.walk.nodes[-1] == _g2.start_id


def test_multi_tx_needs_five_bids(engine_cache):
    result = engine_cache.run("multi_tx")
    assert result.status == "found"
    fns = [tx.function for tx in result.sequence]
    assert fns == ["<constructor>"] + ["bid"] * 5 + ["check"]


def test_unknown_heuristic_rejected(corpus):
    with pytest.raises(ConfigError):
        synthesize(corpus["guess_check"], heuristic="nope")


def test_register_heuristic_round_trip(corpus):
    def factory(ctx):
        fw = HEURISTICS["floyd-warshall"](ctx)

        def cost(tree, leaf, option):
            return fw(tree, leaf, option)

        return cost

    register_heuristic("custom-test", factory)
    try:
        result = synthesize(corpus["guess_check"], heuristic="custom-test")
        assert result.status == "found"
    finally:
        del HEURISTICS["custom-test"]


def test_limits_must_be_positive():
    with pytest.raises(ConfigError):
        Limits(max_walks=0)
    with pytest.raises(ConfigError):
        Limits(wall_timeout=-1)
