from minisol.cfg import ReversedView, build_cfg, build_cfg_plus, to_dot
from minisol.frontend import parse_contract
from minisol.ir import inline_internal_calls, lower

from ref_oracles import expected_plus_edges


def build(source):
    return build_cfg_plus(inline_internal_calls(lower(parse_contract(source))))


def test_linear_chain_for_simple_add(corpus):
    program = inline_internal_calls(lower(parse_contract(corpus["overflow"])))
    cfg = build_cfg(program.function("add"))
    labels = [n.kind for n in cfg.nodes]
    assert labels == ["entry", "instr", "instr", "exit"]
    ids = [n.id for n in cfg.nodes]
    assert sorted(cfg.edges) == [(ids[0], ids[1]), (ids[1], ids[2]),
                                 (ids[2], ids[3])]
    assert cfg.initial == [ids[0]] and cfg.final == [ids[3]]


def test_if_diamond_reaches_exit_both_ways():
    src = """contract D {
    function f(bool c) public returns (uint) {
        if (c)
            return 1;
        return 0;
    }
}
"""
    program = inline_internal_calls(lower(parse_contract(src)))
    cfg = build_cfg(program.function("f"))
    conds = [n for n in cfg.nodes if n.kind == "instr"
             and n.instr.kind == "condition"]
    assert len(conds) == 1
    cond = conds[0]
    t, f = cfg.branch[cond.id]
    succs = {}
    for a, b in cfg.edges:
        succs.setdefault(a, set()).add(b)
    assert succs[cond.id] == {t, f}

    def reaches_exit(node):
        seen, frontier = {node}, [node]
        while frontier:
            n = frontier.pop()
            if n == cfg.exit_id:
                return True
            for s in succs.get(n, ()):
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return False

    assert reaches_exit(t) and reaches_exit(f)


def test_while_produces_back_edge():
    src = """contract W {
    function f(uint256 n) public {
        uint256 i = 0;
        while (i < n)
            i += 1;
    }
}
"""
    program = inline_internal_calls(lower(parse_contract(src)))
    cfg = build_cfg(program.function("f"))
    cond = next(n for n in cfg.nodes if n.kind == "instr"
                and n.instr.kind == "condition")
    # hand-drawn: the loop-body store jumps back to the condition's
    # preceding compare, forming the cycle compare -> cond -> ... -> compare
    body_store = [n for n in cfg.nodes if n.kind == "instr"
                  and n.instr.kind == "assign" and n.instr.dest.name == "i"
                  and n.id > cond.id]
    assert body_store, "loop body increments i"
    back_targets = {b for a, b in cfg.edges if a == body_store[-1].id}
    assert any(t < cond.id or t == cond.id for t in back_targets)
    assert all(b <= max(n.id for n in cfg.nodes) for _a, b in cfg.edges)
    # the cycle exists: cond is reachable from its own true branch
    succs = {}
    for a, b in cfg.edges:
        succs.setdefault(a, set()).add(b)
    seen, frontier = set(), [cfg.branch[cond.id][0]]
    while frontier:
        n = frontier.pop()
        if n == cond.id:
            break
        for s in succs.get(n, ()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    else:
        raise AssertionError("no back edge to the loop condition")


def test_empty_contract_plus_graph_exact():
    plus = build("contract C {}")
    kinds = [(n.id, n.kind) for n in plus.nodes]
    assert kinds == [(0, "start"), (1, "entry"), (2, "exit"),
                     (3, "constructed"), (4, "tx_processed"), (5, "end")]
    assert sorted(set(plus.edges)) == [(0, 1), (1, 2), (2, 3), (4, 3), (4, 5)]


def test_constructed_fans_out_to_public_entries(corpus):
    plus = build(corpus["guess_check"])
    out = {plus.node(s).label() for s in plus.successors(plus.constructed_id)}
    assert out == {"entry check", "entry guess"}


def test_single_function_entry(corpus):
    plus = build(corpus["overflow"])
    assert [plus.node(s).kind for s in plus.successors(plus.constructed_id)] \
        == ["entry"]


def test_node_count_identity(corpus):
    for name, source in corpus.items():
        plus = build(source)
        n_ctor = len(plus.ctor_cfg.nodes)
        n_fns = sum(len(cfg.nodes) for cfg in plus.fn_cfgs.values())
        assert len(plus.nodes) == n_ctor + n_fns + 4, name


def test_edge_set_equation_exact(corpus):
    for name, source in corpus.items():
        plus = build(source)
        assert set(plus.edges) == expected_plus_edges(plus), name


def test_function_entries_and_exits_wired(corpus):
    for source in corpus.values():
        plus = build(source)
        edges = set(plus.edges)
        for cfg in plus.fn_cfgs.values():
            for s in cfg.initial:
                assert (plus.constructed_id, s) in edges
            for t in cfg.final:
                assert (t, plus.tx_processed_id) in edges


def test_every_node_reachable_from_function_entry(corpus):
    for source in corpus.values():
        plus = build(source)
        for cfg in [plus.ctor_cfg] + list(plus.fn_cfgs.values()):
            succs = {}
            for a, b in cfg.edges:
                succs.setdefault(a, set()).add(b)
            seen = {cfg.entry_id}
            frontier = [cfg.entry_id]
            while frontier:
                n = frontier.pop()
                for s in succs.get(n, ()):
                    if s not in seen:
                        seen.add(s)
                        frontier.append(s)
            for node in cfg.nodes:
                if node.id != cfg.exit_id:
                    assert node.id in seen


def test_branch_nodes_have_two_successors(corpus):
    for source in corpus.values():
        plus = build(source)
        degree = {}
        for a, _b in plus.edges:
            degree[a] = degree.get(a, 0) + 1
        for node in plus.nodes:
            if node.kind == "instr" and node.instr.kind in ("condition",
                                                            "require",
                                                            "assert"):
                assert degree[node.id] == 2
            if node.kind == "exit":
                fn_edges = [e for e in plus.edges if e[0] == node.id]
                assert all(plus.node(b).kind == "constructed"
                           or plus.node(b).kind == "tx_processed"
                           for _a, b in fn_edges)


def test_reverse_flips_every_edge():
    plus = build("contract C { function f() public {} }")
    rv = ReversedView(plus)
    assert sorted(rv.edges()) == sorted((b, a) for a, b in plus.edges)
    # double reversal: flipping the reversed edge set gives the original
    assert sorted((b, a) for a, b in rv.edges()) == sorted(plus.edges)


def test_reversed_neighbors_of_constructed(corpus):
    plus = build(corpus["guess_check"])
    rv = ReversedView(plus)
    labels = {plus.node(s).label() for s in rv.successors(plus.constructed_id)}
    assert labels == {"exit <constructor>", "tx_processed"}


def test_dot_deterministic_and_shaped(corpus):
    plus = build("contract C {}")
    dot = to_dot(plus)
    assert dot == to_dot(plus)
    assert "digraph cfg_plus" in dot
    assert 'n0 [shape=doublecircle, label="start"]' in dot
    assert "n0 -> n1;" in dot
    plus6 = build(corpus["multi_tx"])
    dot6 = to_dot(plus6)
    assert dot6.count("subgraph") == 3      # constructor + bid + check
    assert dot6 == to_dot(build(corpus["multi_tx"]))


def test_aborted_edges_dashed(corpus):
    plus = build(corpus["token"])
    dot = to_dot(plus)
    assert "style=dashed" in dot
    sinks = [n for n in plus.nodes if n.is_revert_sink]
    assert sinks
    for sink in sinks:
        if plus.node(sink.id).fn != "<constructor>":
            assert (sink.id, plus.tx_processed_id) in set(plus.edges)
