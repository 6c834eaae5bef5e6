import gc
import json
import shlex
import sys
import time

import pytest

from minisol.concretize import from_json, to_json
from minisol.encoder import SolverConfig, SolverSession, encode, ssa_number
from minisol import engine
from minisol.engine import pick_target, prepare, replay_file, synthesize
from minisol.errors import TargetError
from minisol.explorer import Limits, Walk
from minisol.frontend import extract_targets
from minisol import oracle
from minisol.smt import solve as smt_solve

TIMESTAMP_SRC = """contract Timed {
    bool opened = false;

    function open() public {
        if (block.timestamp > 1000)
            opened = true;  // @target
    }
}
"""


def test_timestamp_is_solved_and_replayed_in_memory():
    result = synthesize(TIMESTAMP_SRC)
    assert result.status == "found"
    tx = result.sequence.transactions[1]
    assert tx.timestamp > 1000              # model value, kept in memory
    assert result.report.target_hit
    # the wire schema has no timestamp field: a JSON round trip replays
    # with timestamp 0 and misses (determinism over realism)
    text = to_json(result.sequence)
    assert "timestamp" not in text
    _ast, program, _graph = prepare(TIMESTAMP_SRC)
    report = oracle.replay(program, from_json(text),
                           result.target)
    assert not report.target_hit


def test_pick_target_requires_annotation():
    with pytest.raises(TargetError):
        pick_target("contract C { uint256 x = 0; }", None)


def test_pick_target_line_must_match(corpus):
    with pytest.raises(TargetError):
        pick_target(corpus["guess_check"], 4)
    spec = pick_target(corpus["guess_check"], 6)
    assert spec.line == 6


def test_replay_file_round_trip(corpus, engine_cache):
    result = engine_cache.run("guess_check")
    report = replay_file(corpus["guess_check"], to_json(result.sequence))
    assert report.target_hit and report.hit_at_tx == 2


def test_lazy_check_returns_verified_sequence(corpus):
    result = synthesize(corpus["two_tx_overflow"], lazy_check=True)
    assert result.status == "found"
    assert result.report.target_hit and result.report.safety_value


def test_gas_reported_verbatim(engine_cache):
    result = engine_cache.run("guess_check")
    obj = json.loads(to_json(result.sequence))
    assert all(tx["gas"] == "0" for tx in obj["transactions"])


@pytest.mark.parametrize("seed", range(12))
def test_engine_runs_clean_on_random_annotated_programs(seed):
    """Fuzz pass: annotate a random statement of a random program and run
    the whole pipeline; found and notfound are both fine, crashes are not."""
    import random
    from genprog import random_source
    from minisol.explorer import Limits
    from minisol.frontend import parse_contract
    from minisol.lang import iter_statements

    source = random_source(9000 + seed)
    ast = parse_contract(source)
    rng = random.Random(seed)
    lines = sorted({s.line for fn in ast.functions
                    for s in iter_statements(fn.body)})
    line = rng.choice(lines)
    src_lines = source.splitlines()
    src_lines[line - 1] += "  // @target"
    annotated = "\n".join(src_lines) + "\n"
    result = synthesize(annotated, limits=Limits(max_walks=300,
                                                 wall_timeout=8))
    assert result.status in ("found", "notfound")
    if result.status == "found":
        assert result.report.target_hit


def test_address_literal_pins_the_caller():
    source = """contract Door {
    bool hit = false;

    function knock() public {
        if (msg.sender == address(3))
            hit = true;  // @target
    }
}
"""
    result = synthesize(source)
    assert result.status == "found"
    assert result.sequence.transactions[1].caller == "A3"


def test_loop_target_needs_two_iterations(corpus):
    result = synthesize(corpus["loop_sum"])
    assert result.status == "found"
    pump = result.sequence.transactions[1]
    assert pump.function == "pump" and pump.args == [2]


def test_safety_with_map_read(corpus):
    source = """contract M {
    mapping(uint => uint) table;

    function put(uint k, uint v) public {
        table[k] = v;  // @target table[5] == 9
    }
}
"""
    result = synthesize(source)
    assert result.status == "found"
    assert result.report.target_hit and result.report.safety_value


def test_safety_call_rejected():
    source = """contract C {
    uint256 x = 0;
    function helper() internal returns (uint256) { return 1; }
    function f() public {
        x = 1;  // @target helper() == 1
    }
}
"""
    with pytest.raises(TargetError):
        synthesize(source)


def _outcome(result):
    """What a run reports, less its timing."""
    seq = None
    if result.sequence is not None:
        seq = json.loads(to_json(result.sequence))
        seq.pop("time_ms")
    return result.status, result.walks_explored, result.reason, seq


@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow",
                                  "loop_sum", "multi_tx"])
def test_linear_refuter_changes_no_answer(corpus, monkeypatch, name,
                                          heuristic):
    """The word-level refuter only answers unsat early.  With it patched
    out, every residual it would reject goes on to greedy, Blaster and
    SatSolver and must come out unsat there, and the run's status, walk
    count and sequence stay the same."""
    with_refuter = synthesize(corpus[name], heuristic=heuristic,
                              lazy_check=True)

    refute = smt_solve._refuted_linear
    solve_commands = smt_solve.solve_commands
    would_refute = []
    cross_checked = 0

    def record(residual):
        would_refute.append(refute(residual))
        return False

    def solve_and_compare(*args, **kwargs):
        nonlocal cross_checked
        would_refute.clear()
        result = solve_commands(*args, **kwargs)
        if any(would_refute):
            assert result.status == "unsat"
            cross_checked += 1
        return result

    monkeypatch.setattr(smt_solve, "_refuted_linear", record)
    monkeypatch.setattr(smt_solve, "solve_commands", solve_and_compare)
    without = synthesize(corpus[name], heuristic=heuristic, lazy_check=True)
    assert _outcome(without) == _outcome(with_refuter)
    if (name, heuristic) == ("multi_tx", "floyd-warshall"):
        assert cross_checked > 0


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow", "token",
                                  "multi_tx"])
def test_frontier_shortcut_changes_no_answer(corpus, monkeypatch, check_log,
                                             name, heuristic, lazy_check):
    """An extension decided by its frontier clauses alone gets the answer
    the full solve gives.  With the shortcut patched out every check is a
    full solve, and the same walks are checked in the same order with the
    same answers; the run's status, walk count, reason and sequence stay
    the same.  No complete walk is decided by its frontier."""
    with_shortcut = synthesize(corpus[name], heuristic=heuristic,
                               lazy_check=lazy_check)
    shortcut_checks = list(check_log)
    check_log.clear()
    monkeypatch.setattr(engine, "frontier_script", lambda *a, **k: None)
    without = synthesize(corpus[name], heuristic=heuristic,
                         lazy_check=lazy_check)
    assert _outcome(without) == _outcome(with_shortcut)
    assert [c[:2] for c in shortcut_checks] == [c[:2] for c in check_log]
    inherited = [nodes for nodes, _status, reason in shortcut_checks
                 if reason == "inherited"]
    _ast, _program, graph = prepare(corpus[name])
    assert all(nodes[-1] != graph.start_id for nodes in inherited)
    assert not any(reason == "inherited" for *_c, reason in check_log)
    if (name, lazy_check) == ("multi_tx", False):
        assert inherited


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow", "token",
                                  "multi_tx"])
def test_run_context_changes_no_answer(corpus, check_log, name, heuristic,
                                       lazy_check):
    """One term context per run, and the answers it lets the engine reuse,
    change nothing.  Every check answered from the run's table (a frontier
    of an earlier frontier's shape, or a whole script that repeats an
    earlier one) gets the answer a solve of its whole walk gives in a
    context of its own.  A complete walk is never answered from the table:
    it needs a model."""
    source = corpus[name]
    target = extract_targets(source)[0]
    synthesize(source, heuristic=heuristic, lazy_check=lazy_check)
    repeated = [(nodes, status) for nodes, status, reason in check_log
                if reason == "repeated"]
    _ast, program, graph = prepare(source)
    session = SolverSession()
    for nodes, status in repeated:
        assert nodes[-1] != graph.start_id
        fresh = session.check(encode(ssa_number(Walk(nodes, graph), program),
                                     target.safety, program))
        assert fresh.status == status, nodes
    if (name, heuristic) == ("token", "state-var"):
        assert repeated


@pytest.mark.parametrize("lazy", [False, True])
def test_every_check_resumes_from_one_runs_numbering(corpus, monkeypatch,
                                                     lazy):
    """The engine numbers the root walk once.  Every check is handed the
    numbering of its nearest checked ancestor (the root's included), all
    of one run, and hands its own walk's numbering back; in eager mode the
    handed numbering is the parent's, one node short."""
    search = engine.find_minimal_satisfiable_walk
    handed = []

    def recorded_search(*args, check, numbered=None, **kwargs):
        assert numbered is not None and numbered.length == 1

        def checked(walk):
            result = check(walk)
            handed.append((len(walk.nodes), walk.numbered, result.numbering))
            return result
        return search(*args, check=checked, numbered=numbered, **kwargs)

    monkeypatch.setattr(engine, "find_minimal_satisfiable_walk",
                        recorded_search)
    synthesize(corpus["multi_tx"], lazy_check=lazy,
               limits=Limits(max_walks=300))
    assert len(handed) > 100
    assert len({id(n.run) for _l, n, _o in handed}) == 1
    for length, given, own in handed:
        assert own.length == length and own.run is given.run
        if lazy:
            assert 1 <= given.length < length
        else:
            assert given.length == length - 1


def test_a_frontier_script_takes_a_short_walks_answer(corpus, check_log):
    """Short scripts are keyed on their shape.  On condition_check the
    frontier script of the third extension (the account clauses and the
    outer branch condition) is a renaming of the first extension's whole
    script, so it takes that answer from the table."""
    synthesize(corpus["condition_check"])
    first, _second, third = check_log[:3]
    assert len(first[0]) == 2 and first[2] == ""
    assert len(third[0]) == 4 and third[1:] == ("sat", "repeated")


@pytest.mark.parametrize("solver_answers", [True, False])
def test_only_a_decided_answer_is_reused(corpus, monkeypatch, solver_answers):
    """Every walk is checked twice in a row.  The second check of an
    incomplete walk whose whole script was answered sat or unsat takes
    that answer from the table, unsubmitted.  A complete walk is solved
    again, and with a solver that answers only ``unknown`` every check is
    submitted again."""
    search = engine.find_minimal_satisfiable_walk
    pairs = []

    def check_twice(*args, check, **kwargs):
        def checked(walk):
            first = check(walk)
            pairs.append((walk, first, check(walk)))
            return first
        return search(*args, check=checked, **kwargs)

    submitted = 0

    def no_answer(*args):
        nonlocal submitted
        submitted += 1
        return smt_solve.Result("unknown", reason="no answer")

    monkeypatch.setattr(engine, "find_minimal_satisfiable_walk", check_twice)
    if not solver_answers:
        monkeypatch.setattr(smt_solve, "solve_commands", no_answer)
    synthesize(corpus["token"], heuristic="state-var",
               limits=Limits(max_walks=200))
    assert pairs
    for walk, first, second in pairs:
        assert second.status == first.status
        if first.status == "unknown" or walk.nodes[-1] == walk.graph.start_id:
            assert second.reason != "repeated"
        elif first.reason != "inherited":
            assert second.reason == "repeated"
    if not solver_answers:
        assert submitted == 2 * len(pairs)


def test_a_script_answered_from_the_table_is_not_encoded(corpus, monkeypatch,
                                                        check_log):
    """The answer table is looked up on a script's clauses, plus the
    resolved safety condition, before ``encode``: every script encoded is
    submitted.  On token (state-var) 1170 checks are answered from the
    table, and none of them is lost."""
    real_encode, real_check = engine.encode, SolverSession.check
    encoded = submitted = 0

    def counted_encode(*args, **kwargs):
        nonlocal encoded
        encoded += 1
        return real_encode(*args, **kwargs)

    def counted_check(self, *args, **kwargs):
        nonlocal submitted
        submitted += 1
        return real_check(self, *args, **kwargs)

    monkeypatch.setattr(engine, "encode", counted_encode)
    monkeypatch.setattr(SolverSession, "check", counted_check)
    result = synthesize(corpus["token"], heuristic="state-var")
    assert result.status == "found"
    assert sum(reason == "repeated" for *_c, reason in check_log) >= 1170
    assert encoded == submitted > 0


def test_emit_smt_dumps_every_submission_deterministically(
        corpus, monkeypatch, tmp_path):
    """Two runs dump the same files, byte for byte, one per submission; a
    script answered from the run's table is not submitted and dumps
    nothing."""
    sessions = []

    def recorded_session(config):
        sessions.append(SolverSession(config))
        return sessions[-1]

    monkeypatch.setattr(engine, "SolverSession", recorded_session)
    dumps = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        result = synthesize(corpus["token"], heuristic="state-var",
                            solver=SolverConfig(emit_dir=str(out_dir)),
                            limits=Limits(max_walks=200))
        paths = sorted(out_dir.iterdir())
        dumps.append([(p.name, p.read_bytes()) for p in paths])
        assert len(paths) == sessions[-1].n_submissions
        assert len(paths) < result.walks_explored
    assert dumps[0] == dumps[1]


def test_a_run_leaves_no_cyclic_garbage(corpus):
    """A check's terms, scripts and closures are freed by reference
    counting alone.  A multi_tx run used to leave about a million objects
    in reference cycles; 61 are left now, all built once per run."""
    gc.collect()
    gc.disable()
    try:
        synthesize(corpus["multi_tx"])
        assert gc.collect() < 1000
    finally:
        gc.enable()


def test_wall_timeout_ends_the_search_with_timeout(corpus):
    result = synthesize(corpus["multi_tx"],
                        limits=Limits(wall_timeout=0.05))
    assert (result.status, result.reason) == ("notfound", "timeout")


def test_wall_timeout_bounds_an_external_solver(corpus):
    """A --solver-cmd process still running at the deadline is killed and
    the search ends with ``timeout``, as with the bundled solver."""
    sleeper = "%s -c %s" % (shlex.quote(sys.executable),
                            shlex.quote("import time; time.sleep(30)"))
    start = time.monotonic()
    result = synthesize(corpus["guess_check"],
                        solver=SolverConfig(command=sleeper),
                        limits=Limits(wall_timeout=0.5))
    assert (result.status, result.reason) == ("notfound", "timeout")
    assert time.monotonic() - start < 5.0
