import itertools
import random

import pytest

from minisol.cfg import ReversedView
from minisol.encoder import (SolverConfig, SolverSession,
                             bundled_solver_command, encode, frontier_script,
                             resolve_safety, ssa_number)
from minisol.engine import prepare
from minisol.errors import EncodeError, SolverError
from minisol.explorer import Walk
from minisol.frontend import extract_targets

from genprog import random_source, random_walk
from ref_oracles import definition_symbols

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


def test_ssa_two_assignments_get_versions():
    _ast, program, graph = prepare(TWO_ASSIGN)
    walk = forward_walk(graph, "f")
    script = ssa_number(walk, program)
    defs = [(c[1], c[3]) for c in script.clauses if c[0] == "def"]
    var_defs = [d for d in defs if d[0].startswith("var_")]
    # var_!1 = 0 (initializer), var_!2 = 10, var_!3 = <tmp of var_!2 + 20>
    assert [d[0] for d in var_defs] == ["var_!1", "var_!2", "var_!3"]
    add = next(e for _s, e in defs if e[0] == "bin" and e[1] == "+")
    assert add[2] == ("sym", "var_!2", add[2][2])
    tmp_sym = next(s for s, e in defs if e is add)
    assert var_defs[2][1] == ("sym", tmp_sym, var_defs[2][1][2])


def test_ssa_single_assignment_x_equals_5():
    src = "contract S { uint8 x = 0; function f() public { x = 5; } }"
    _ast, program, graph = prepare(src)
    walk = forward_walk(graph, "f")
    script = ssa_number(walk, program)
    assert definition_symbols(script).count("x!2") == 1


def single_assignment_ok(script):
    defs = definition_symbols(script)
    return len(defs) == len(set(defs))


def versions_monotone(script):
    last = {}
    for sym in definition_symbols(script):
        base, _, ver = sym.rpartition("!")
        ver = int(ver)
        if base in last and ver <= last[base]:
            return False
        last[base] = ver
    gen_seen = {}
    for clause in script.clauses:
        if clause[0] == "map_write":
            _, m, g_from, g_to, _k, _v, _p = clause
            if g_to <= gen_seen.get(m, 0):
                return False
            gen_seen[m] = g_to
    return True


def test_listing3_two_transaction_walk(corpus):
    """Two add() calls: balance versions climb monotonically across the
    transactions and the env generations are 1 and 2 (deployment is 0)."""
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
    balance_defs = [c[1] for c in script.clauses if c[0] == "def"
                    and c[1].startswith("sellerBalance!")]
    assert balance_defs == ["sellerBalance!1", "sellerBalance!2",
                            "sellerBalance!3"]
    txs = script.transactions
    assert [t.fn for t in txs] == ["<constructor>", "add", "add"]
    assert [t.value for t in txs] == ["msg.value!t0", "msg.value!t1",
                                      "msg.value!t2"]
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
    assert "(assert (= (dataStorage!1 " in smt.text
    assert ("(assert (forall ((%k (_ BitVec 256))) (=> (distinct %k "
            in smt.text)
    assert "(= (dataStorage!1 %k) (dataStorage!0 %k))" in smt.text
    # zero-initialized storage for the complete walk
    assert ("(assert (forall ((%k (_ BitVec 256))) "
            "(= (dataStorage!0 %k) " in smt.text)


def test_never_written_map_read_zero_init(corpus):
    _ast, program, graph = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    walk = forward_walk(graph, "check", stop_line=target.line)
    script = ssa_number(walk, program)
    smt = encode(script)
    assert "(= (dataStorage!0 %k) #x" in smt.text


def run_check(script, safety=None, program=None):
    smt = encode(script, safety=safety, program=program)
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
    script = ssa_number(walk, program)
    result, _ = run_check(script, safety=target.safety, program=program)
    assert result.status == "sat"
    v1 = result.model["value!t1!0"]
    v2 = result.model["value!t2!0"]
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
    script = ssa_number(walk, program)
    result, _ = run_check(script, safety=target.safety, program=program)
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
    assert result.model["x!3"] == 0


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
    # after the aborted tx, g's live version is the constructor's g!1
    tp = script.target_point
    assert tp.state["g"] == 1
    # but the aborted write still owns a unique, higher version
    assert "g!2" in definition_symbols(script)


def _sym_maps(pre_name, full_name, rename):
    """Pair a prefix symbol with its full-walk counterpart.  The renaming
    must stay injective: no name on either side gets a second partner."""
    known = rename.setdefault(pre_name, full_name)
    back = rename.setdefault(("image of", full_name), pre_name)
    return known == full_name and back == pre_name


def _expr_aligns(pre, full, rename):
    if pre[0] != full[0]:
        return False
    tag = pre[0]
    if tag == "sym":
        return _sym_maps(pre[1], full[1], rename) and pre[2] == full[2]
    if tag == "lit":
        return pre[1] == full[1] and pre[2] == full[2]
    if tag == "bin":
        return (pre[1] == full[1] and pre[4] == full[4]
                and _expr_aligns(pre[2], full[2], rename)
                and _expr_aligns(pre[3], full[3], rename))
    if tag == "not":
        return _expr_aligns(pre[1], full[1], rename)
    if tag in ("zext", "trunc"):
        return pre[2] == full[2] and _expr_aligns(pre[1], full[1], rename)
    if tag == "read":
        return (pre[1] == full[1]
                and _sym_maps("%s!%d" % (pre[1], pre[2]),
                              "%s!%d" % (full[1], full[2]), rename)
                and _expr_aligns(pre[3], full[3], rename))
    raise AssertionError("unknown expr tag %r" % tag)


def _aligns(pre_clause, full_clause, rename):
    """Clause equality where every prefix symbol (and map generation) maps
    to exactly one full-walk counterpart."""
    if pre_clause[0] != full_clause[0]:
        return False
    kind = pre_clause[0]
    if kind == "def":
        return (_sym_maps(pre_clause[1], full_clause[1], rename)
                and pre_clause[2] == full_clause[2]
                and _expr_aligns(pre_clause[3], full_clause[3], rename))
    if kind in ("assume", "safety"):
        return _expr_aligns(pre_clause[1], full_clause[1], rename)
    if kind == "map_write":
        _, m1, gf1, gt1, k1, v1, _p1 = pre_clause
        _, m2, gf2, gt2, k2, v2, _p2 = full_clause
        return (m1 == m2
                and _sym_maps("%s!%d" % (m1, gf1), "%s!%d" % (m2, gf2),
                              rename)
                and _sym_maps("%s!%d" % (m1, gt1), "%s!%d" % (m2, gt2),
                              rename)
                and _expr_aligns(k1, k2, rename)
                and _expr_aligns(v1, v2, rename))
    if kind == "scalar_zero":
        return _sym_maps(pre_clause[1], full_clause[1], rename) \
            and pre_clause[2] == full_clause[2]
    if kind == "map_zero":
        return pre_clause[1] == full_clause[1]
    raise AssertionError("unknown clause kind %r" % kind)


def test_prefix_unsat_stays_unsat_and_assertions_nest(corpus):
    """Extensions only add conjuncts: a prefix's assertion set, shifted by
    the extension's version offsets, is a subset of the full walk's, and an
    UNSAT prefix can never become SAT."""
    rng = random.Random(7)
    for name in ("guess_check", "overflow", "multi_tx"):
        _ast, program, graph = prepare(corpus[name])
        for _ in range(12):
            walk = random_walk(rng, graph, max_len=30)
            full = ssa_number(walk, program)
            for cut in (2, max(2, len(walk.nodes) // 2)):
                if cut >= len(walk.nodes):
                    continue
                prefix = Walk(walk.nodes[:cut], graph=graph)
                pre = ssa_number(prefix, program)
                n = len(prefix.nodes)
                shift = len(walk.nodes) - n
                # node-anchored clauses of the prefix reappear, same kinds in
                # the same order, as the full walk's tail (positions shifted)
                pre_tail = [c for c in pre.clauses if c[-1] >= 0]
                full_tail = [c for c in full.clauses if c[-1] >= shift]
                assert [(c[0], c[-1] + shift) for c in pre_tail] \
                    == [(c[0], c[-1]) for c in full_tail], (name, cut)
                assert len(pre.clauses) <= len(full.clauses)
                # and the clause pairs are equal under one consistent
                # symbol renaming (the walk-growth version shift)
                rename = {}
                for pc, fc in zip(pre_tail, full_tail):
                    assert _aligns(pc, fc, rename), (name, cut, pc, fc)
                r_pre, _ = run_check(pre)
                if r_pre.status == "unsat":
                    r_full, _ = run_check(full)
                    assert r_full.status == "unsat"


def _image_renaming(parent_clauses, child_clauses, rename):
    """Extend `rename` to one injective renaming under which every child
    clause is the image of a parent clause; None if there is none.  A clause
    anchored at position p pairs with a parent clause at p - 1; segment
    clauses (position -1) with any parent segment clause."""
    order = sorted(child_clauses, key=lambda c: c[-1] < 0)

    def search(i, rename):
        if i == len(order):
            return rename
        clause = order[i]
        for pc in parent_clauses:
            if pc[0] != clause[0] or (pc[-1] + 1 if pc[-1] >= 0 else -1) \
                    != clause[-1]:
                continue
            trial = dict(rename)
            if _aligns(pc, clause, trial):
                found = search(i + 1, trial)
                if found is not None:
                    return found
        return None

    return search(0, rename)


def _random_backward_walk(rng, graph, root, max_len):
    rv = ReversedView(graph)
    nodes = [root]
    for _ in range(rng.randrange(1, max_len)):
        succs = rv.successors(nodes[-1])
        if not succs:
            break
        nodes.append(rng.choice(sorted(succs)))
        if nodes[-1] == graph.start_id:
            break
    return Walk(tuple(nodes), graph=graph)


def test_extension_renames_parent_clauses_injectively(corpus):
    """The basis for deciding an extension by its frontier clauses alone:
    the child's clauses after `frontier_end`, and its resolved safety
    condition, are images of the parent's under one injective renaming
    (the segment and version shifts of forward numbering)."""
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
            walk = _random_backward_walk(rng, graph, root, 40)
            for k in range(1, len(walk.nodes)):
                try:
                    parent = ssa_number(Walk(walk.nodes[:k], graph), program)
                    child = ssa_number(Walk(walk.nodes[:k + 1], graph),
                                       program)
                except EncodeError:
                    continue
                rename = {}
                if target.safety is not None:
                    try:
                        p_safety = resolve_safety(parent, target.safety,
                                                  program)
                        c_safety = resolve_safety(child, target.safety,
                                                  program)
                    except EncodeError:
                        pass
                    else:
                        assert _expr_aligns(p_safety, c_safety, rename), \
                            (name, walk.nodes[:k + 1])
                assert _image_renaming(
                    parent.clauses, child.clauses[child.frontier_end:],
                    rename) is not None, (name, walk.nodes[:k + 1])
                checked += 1
    assert checked > 1000


def test_write_in_a_reverted_segment_splits_a_symbol_and_is_solved(corpus):
    """The one extension that is no injective renaming: a state write in a
    transaction that later reverts.  The parent's `g!0` becomes `g!1`
    before the revert and stays `g!0` after it.  The frontier then defines
    `g!1`, which the rest reads, so it is never decided alone."""
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
    parent = ssa_number(Walk(nodes[:-1], graph), program)
    child = ssa_number(Walk(nodes, graph), program)
    rest = child.clauses[child.frontier_end:]
    assert _image_renaming(parent.clauses, rest, {}) is None
    assert frontier_script(child) is None


def test_emit_smt_dumps_are_deterministic(tmp_path, corpus):
    src = corpus["ctor_target"]
    _ast, program, graph = prepare(src)
    target = extract_targets(src)[0]

    def run(out_dir):
        session = SolverSession(SolverConfig(emit_dir=str(out_dir)))
        from minisol.explorer import HEURISTICS, Limits, \
            find_minimal_satisfiable_walk

        def check(walk):
            return session.check(encode(ssa_number(walk, program),
                                        safety=target.safety,
                                        program=program))

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
    assert out.model.values == in_proc.model.values


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
    names = [sym for sym, _t in smt.manifest]
    fake_values = []
    for i, query in enumerate(smt.queries):
        if query[0] == "sym":
            fake_values.append("(%s %s)" % (query[1],
                                            "#x%02x" % (i % 7) if i % 2
                                            else "#b1"))
        else:
            fake_values.append("(%s (_ bv0 256))" % query[3])
    output = "sat\n(%s)\n" % " ".join(fake_values)
    result = parse_solver_output(output, smt)
    assert result.status == "sat"
    assert set(result.model.values) == set(names)


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
        script = encode(ssa_number(walk, program), safety=target.safety,
                        program=program)
        direct = session.check(script)
        via_text = parse_solver_output(smt.solve_text(script.text), script)
        assert via_text.status == direct.status
        if direct.status == "sat":
            assert direct.model.values == via_text.model.values
            assert set(direct.model.values) == {s for s, _t in
                                                script.manifest}
        statuses.append(direct.status)
        return direct

    find_minimal_satisfiable_walk(graph, target, HEURISTICS["floyd-warshall"],
                                  Limits(max_walks=200), check=check)
    assert "sat" in statuses


def test_checked_constructor_rejects_ill_sorted_encoder_terms():
    from minisol.encoder import SsaScript, e_bin, e_sym
    from minisol.lang import U8, U256
    from minisol.smt import SmtError
    mismatch = SsaScript(symbols={"a": U8, "b": U256, "c": U256})
    mismatch.clauses.append(("def", "c", U256,
                             e_bin("+", e_sym("a", U8), e_sym("b", U256),
                                   U256), 0))
    with pytest.raises(SmtError, match="width mismatch in bvadd"):
        encode(mismatch)
    not_bool = SsaScript(symbols={"b": U256})
    not_bool.clauses.append(("assume", e_sym("b", U256), 0))
    with pytest.raises(SmtError, match="assert needs a Bool term"):
        encode(not_bool)
