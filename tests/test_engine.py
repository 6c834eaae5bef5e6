import gc
import json
import shlex
import sys
import time
from collections import Counter

import pytest

from minisol.concretize import from_json, to_json
from minisol import encoder
from minisol.encoder import (SolverConfig, SolverSession, SsaScript, encode,
                             parse_solver_output, ssa_number)
from minisol import engine
from minisol.engine import pick_target, prepare, replay_file, synthesize
from minisol.errors import EncodeError, ParseError, TargetError
from minisol.explorer import Limits, Walk
from minisol import frontend
from minisol.frontend import extract_targets
from minisol.lang import TargetSpec
from minisol import oracle
from minisol.smt import solve as smt_solve, terms as smt_terms

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


@pytest.fixture
def parses(monkeypatch):
    """Counts parses: the engine's calls of its `parse_contract` name, and
    every whole-contract parse the frontend makes, by whichever route."""
    counts = {"engine": 0, "parser": 0}
    via_engine = engine.parse_contract
    via_parser = frontend.Parser.parse_contract

    def engine_parse(source):
        counts["engine"] += 1
        return via_engine(source)

    def parser_parse(self):
        counts["parser"] += 1
        return via_parser(self)
    monkeypatch.setattr(engine, "parse_contract", engine_parse)
    monkeypatch.setattr(frontend.Parser, "parse_contract", parser_parse)
    return counts


@pytest.mark.parametrize("how", ["annotation", "target_line", "target"])
def test_synthesize_parses_once(corpus, parses, how):
    source = corpus["guess_check"]
    kw = {"annotation": {}, "target_line": {"target_line": 6},
          "target": {"target": TargetSpec(6, None, None)}}[how]
    result = synthesize(source, **kw)
    assert result.status == "found"
    assert parses == {"engine": 1, "parser": 1}


def test_replay_file_parses_once(corpus, engine_cache, parses):
    result = engine_cache.run("guess_check")
    parses.update(engine=0, parser=0)      # the cached run may be this one
    report = replay_file(corpus["guess_check"], to_json(result.sequence))
    assert report.target_hit and report.hit_at_tx == 2
    assert parses == {"engine": 1, "parser": 1}


def test_no_annotation_is_a_target_error_before_a_parse_error(parses):
    broken = "contract C { function f() public { x = ; } }"
    with pytest.raises(TargetError):
        synthesize(broken)
    with pytest.raises(TargetError):
        synthesize("contract C { uint256 x = 0; }")
    assert parses == {"engine": 0, "parser": 0}
    # annotated, the syntax error is the first problem
    with pytest.raises(ParseError):
        synthesize("contract C { function f() public { x = ; } // @target\n}")


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


LATE_LOCAL_SRC = """contract L {
    uint256 x = 0;

    function f(uint256 v) public {
        x = v;  // @target v > 3
        uint256 y = v + 1;
        x = y;
    }
}
"""


def test_safety_may_not_read_a_local_defined_after_the_target():
    """A safety condition over the target transaction's local ``y``, which
    that transaction defines only after the target line, is refused once
    the backward walk reaches the transaction's entry.  (The frontend
    resolves a condition in the scope of its own line; this one is
    resolved on the line after ``y``'s declaration.)"""
    ast = frontend.parse_contract(LATE_LOCAL_SRC)
    target = TargetSpec(5, frontend.parse_expression_at(ast, 7, "y > 3"),
                        "y > 3")
    with pytest.raises(EncodeError,
                       match="safety reads local 'y' before its definition"):
        synthesize(LATE_LOCAL_SRC, target=target)


def test_safety_may_read_a_parameter_of_the_target_transaction():
    result = synthesize(LATE_LOCAL_SRC)
    assert result.status == "found"
    assert result.sequence.transactions[-1].args[0] > 3
    assert result.report.target_hit and result.report.safety_value


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
def test_linear_refuter_changes_no_answer(corpus, monkeypatch, check_log,
                                          name, heuristic):
    """Folding a (dis)equality through its linear form only decides early
    what the later stages decide.  With ``_fold_linear`` patched to fold
    nothing, every comparison it decided or solved goes on unchanged to
    reduction, greedy, the refuters, the split, Blaster and SatSolver, and
    every check keeps its walk, status and reason, and the run its status,
    walk count and sequence.  On multi_tx (floyd-warshall) the rule fires
    in some of the checks so compared."""
    with_rule = synthesize(corpus[name], heuristic=heuristic,
                           lazy_check=True)
    with_rule_checks = list(check_log)
    check_log.clear()

    fold_linear = smt_solve._fold_linear
    solve_commands = smt_solve.solve_commands
    would_fold = []
    cross_checked = 0

    def record(*args):
        would_fold.append(fold_linear(*args))

    def solve_and_count(*args, **kwargs):
        nonlocal cross_checked
        would_fold.clear()
        result = solve_commands(*args, **kwargs)
        cross_checked += any(out is not None for out in would_fold)
        return result

    monkeypatch.setattr(smt_solve, "_fold_linear", record)
    monkeypatch.setattr(smt_solve, "solve_commands", solve_and_count)
    without = synthesize(corpus[name], heuristic=heuristic, lazy_check=True)
    assert _outcome(without) == _outcome(with_rule)
    assert check_log == with_rule_checks
    if (name, heuristic) == ("multi_tx", "floyd-warshall"):
        assert cross_checked > 0


SMALL_CORPUS = ["address_scores", "condition_check", "contradiction",
                "ctor_target", "distinct_callers", "guess_check",
                "internal_call", "loop_sum", "msg_value_check", "overflow",
                "two_tx_overflow"]


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
def test_word_level_refutation_changes_no_answer(corpus, monkeypatch,
                                                 check_log, heuristic,
                                                 lazy_check):
    """The fold rules that need no operand's value and the bound, interval
    and parity refuter only decide early what bit-blasting decides.  With
    both patched out, every check they decided goes on to Blaster and
    SatSolver.  Over the small corpus and 60 generated programs (20 walks
    each at most), every check keeps its walk, status and reason, and
    every run its outcome and sequence."""
    sources = [(corpus[name], Limits()) for name in SMALL_CORPUS]
    sources += [(_annotated(seed), Limits(max_walks=20, wall_timeout=60))
                for seed in range(7000, 7060)]
    decided = Counter()

    def runs():
        out = []
        for source, limits in sources:
            check_log.clear()
            result = synthesize(source, heuristic=heuristic,
                                lazy_check=lazy_check, limits=limits)
            assert result.reason != "timeout"
            out.append((_outcome(result), list(check_log)))
        return out

    def recorded(name):
        real = getattr(smt_solve, name)

        def wrapper(*args):
            out = real(*args)
            decided[name] += out is not None
            return out
        monkeypatch.setattr(smt_solve, name, wrapper)

    recorded("refutation")
    recorded("_fold_trivial")
    with_rules = runs()
    assert decided["refutation"] > 0 and decided["_fold_trivial"] > 0
    monkeypatch.setattr(smt_solve, "refutation", lambda residual: None)
    monkeypatch.setattr(smt_solve, "_fold_trivial", lambda *args: None)
    assert runs() == with_rules


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
def test_the_rewrite_shortcut_changes_no_answer(corpus, monkeypatch,
                                                check_log, heuristic,
                                                lazy_check):
    """``rewrite`` returns a term that reads no substituted variable and
    holds no array as its fold, without walking it.  With the shortcut
    patched off (no term is ``plain``), every term is walked.  On multi_tx,
    token, guess_check, address_scores and 20 generated programs (20 walks
    each at most) every check keeps its walk, status and reason, and every
    run its outcome and sequence.  In every run, each segment index has
    one environment and one pair of account clauses, whichever step opens
    a segment of it."""
    sources = [(corpus[name], Limits()) for name in
               ("multi_tx", "token", "guess_check", "address_scores")]
    sources += [(_annotated(seed), Limits(max_walks=20, wall_timeout=60))
                for seed in range(7000, 7020)]
    envs = {}                      # (run, segment index) -> env, clauses
    open_segment = encoder._Step.open_segment

    def recorded(step, node):
        open_segment(step, node)
        env = (step.seg.env, step.seg.env_clauses)
        kept = envs.setdefault((step.run, step.seg.index), env)
        assert kept[0] is env[0] and kept[1] is env[1]

    def runs():
        out = []
        for source, limits in sources:
            check_log.clear()
            result = synthesize(source, heuristic=heuristic,
                                lazy_check=lazy_check, limits=limits)
            assert result.reason != "timeout"
            out.append((_outcome(result), list(check_log)))
            envs.clear()
        return out

    monkeypatch.setattr(encoder._Step, "open_segment", recorded)
    with_shortcut = runs()
    monkeypatch.setattr(smt_terms.Term, "plain", property(lambda term: False))
    assert runs() == with_shortcut


def _step_parts(n):
    """What a step makes: the numbering's state and its link's terms, by
    identity."""
    seg, link, tx = n.seg, n.link, n.link.tx
    return (n.length, n.node, n.state, n.cur, n.nseg, n.complete,
            seg and (seg.index, seg.fn, id(seg.env), seg.locals, seg.marks,
                     seg.saved),
            link.parent, list(map(id, link.clauses)),
            list(map(id, link.decls)), link.defined, tx and vars(tx))


@pytest.fixture
def step_hits(monkeypatch):
    """Every step a run takes from its step memo is checked against a fresh
    ``_Step`` from the hitting walk's own parent; returns the count of such
    hits."""
    real = encoder.Numbering.step
    hits = [0]

    def step(parent, node_id, safety=None):
        hit = (parent.state, node_id) in parent.run.steps
        n = real(parent, node_id, safety)
        if hit:
            hits[0] += 1
            fresh = encoder._Step(parent, node_id).result(None)
            assert _step_parts(n) == _step_parts(fresh)
        return n

    monkeypatch.setattr(encoder.Numbering, "step", step)
    return hits


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
def test_the_step_memo_changes_no_answer(corpus, monkeypatch, check_log,
                                         step_hits, heuristic, lazy_check):
    """A run numbers a node once per numbering state: a step from a state
    already stepped by the same node takes the kept outputs, and every
    such hit equals a fresh step from its own parent.  With the memo
    patched never to hit, on multi_tx, token, guess_check, address_scores
    and 20 generated programs (20 walks each at most) every check keeps its
    walk, status and reason, and every run its outcome and sequence."""
    sources = [(corpus[name], Limits()) for name in
               ("multi_tx", "token", "guess_check", "address_scores")]
    sources += [(_annotated(seed), Limits(max_walks=20, wall_timeout=60))
                for seed in range(7000, 7020)]

    def runs():
        out = []
        for source, limits in sources:
            check_log.clear()
            result = synthesize(source, heuristic=heuristic,
                                lazy_check=lazy_check, limits=limits)
            assert result.reason != "timeout"
            out.append((_outcome(result), list(check_log)))
        return out

    with_memo = runs()
    assert step_hits[0] > 100
    monkeypatch.setattr(encoder.Numbering, "step",
                        lambda parent, node_id, safety=None:
                        encoder._Step(parent, node_id).result(safety))
    assert runs() == with_memo


KEYS_SRC = """contract Keys {
    uint256 x = 0;
    uint256 y = 0;

    function f(uint256 p, uint256 q) public {
        uint256 a = q;
        if (p > 5) {
            x = x + 1;
        }
        if (q > 7) {
            a = 2;
        }
        if (p == 3) {
            y = 1;
        } else {
            y = 1;
        }
        y = y + a;
    }

    function g(uint256 p) public {
        if (p > 1) {
            x = 5;
        }
        require(p < 3);
    }

    function h() public {
        if (y == 77)
            y = 1;  // @target x == 3
    }
}
"""


def _nodes(graph):
    """Node id by label (``entry f``, ``7: condition $t1``, ...)."""
    return {node.label(): node.id for node in graph.nodes}


def _numbered(graph, *walks):
    """Each walk (node labels, root first) numbered in one run, in order:
    each walk's numbering after every step."""
    ids = _nodes(graph)
    empty = encoder.Numbering.empty(graph.program, graph, smt_terms.Ctx())
    out = []
    for labels in walks:
        n, steps = empty, []
        for label in labels:
            n = n.step(ids[label])
            steps.append(n)
        out.append(steps)
    return out


def test_the_state_number_keeps_apart_what_a_step_reads(step_hits):
    """Two walks that meet at one node of ``Keys`` get different state
    numbers, and share no later step, when they hold different versions
    of state variable ``x`` (``f`` writes it on one side of a branch
    only), different versions of local ``a`` (likewise), or when one
    reverts ``g`` and the other returns from it; the difference shows
    where a step reads it.  On searches of the contract, under both
    heuristics, eager and lazy, every step taken from the memo equals a
    fresh one."""
    _ast, _program, graph = prepare(KEYS_SRC)
    tail = ["exit f", "18: y = assign $t5", "18: $t5 = + y a",
            "14: y = assign 1", "13: condition $t4", "13: $t4 = == p 3"]
    x_pair = _numbered(
        graph,
        tail + ["10: condition $t3", "10: $t3 = > q 7", "8: x = assign $t2",
                "8: $t2 = + x 1", "7: condition $t1"],
        tail + ["10: condition $t3", "10: $t3 = > q 7", "7: condition $t1"])
    a_pair = _numbered(
        graph,
        tail + ["11: a = assign 2", "10: condition $t3"],
        tail + ["10: condition $t3"])
    revert_pair = _numbered(graph, ["tx_processed", "25: revert_sink",
                                    "25: require $t2"],
                            ["tx_processed", "exit g", "25: require $t2"])
    pairs = [
        (x_pair, ["7: $t1 = > p 5", "6: a = assign q", "entry f",
                  "constructed", "exit <constructor>", "3: y = assign 0",
                  "2: x = assign 0"]),
        (a_pair, ["10: $t3 = > q 7", "7: condition $t1", "7: $t1 = > p 5",
                  "6: a = assign q"]),
        (revert_pair, ["25: $t2 = < p 3", "22: condition $t1",
                       "22: $t1 = > p 1", "entry g"])]
    assert x_pair[0][-1].cur["x"] == 1 and "x" not in x_pair[1][-1].cur
    assert a_pair[0][-1].seg.locals["a"] == 1
    assert a_pair[1][-1].seg.locals["a"] == 0
    assert revert_pair[0][-1].seg.saved == {}
    assert revert_pair[1][-1].seg.saved is None
    ids = _nodes(graph)
    last = []
    for (one, other), rest in pairs:
        one, other = one[-1], other[-1]
        assert one.node == other.node
        for label in rest:
            assert one.state != other.state
            node = ids[label]
            keys = (one.state, node), (other.state, node)
            one, other = one.step(node), other.step(node)
            assert all(key in one.run.steps for key in keys)
        last.append((one.link, other.link))
    (x_one, x_other), (a_one, a_other), (r_one, r_other) = last
    assert x_one.clauses != x_other.clauses     # x!1 = 0, x!0 = 0
    assert a_one.clauses != a_other.clauses     # a!t0!1 = q, a!t0!0 = q
    assert r_one.tx.aborted and not r_other.tx.aborted

    for heuristic in ("floyd-warshall", "state-var"):
        for lazy_check in (False, True):
            result = synthesize(KEYS_SRC, heuristic=heuristic,
                                lazy_check=lazy_check,
                                limits=Limits(max_walks=300))
            assert result.status == "notfound"
    assert step_hits[0] > 100


READ_BEFORE_WRITE_SRC = """contract R {
    uint256 x = 0;

    function f(uint256 p) public {
        x = p;
        bool c = p > 1;
        if (c) {
            x = 1;
        }
        c = false;
    }
}
"""


def test_a_step_that_raises_is_not_kept():
    """A step that raises ``EncodeError`` is not kept, so a second walk in
    the same state raises again.  Two hand-made walks of ``R`` skip
    ``c``'s declaration and meet at ``x = p`` in states that differ only
    in their marks: the one that reads ``c`` there is refused at the
    entry, after the one that does not was numbered through it.  And a
    safety condition reading a local its transaction defines only after
    the target is refused at the entry each time."""
    _ast, _program, graph = prepare(READ_BEFORE_WRITE_SRC)
    ids = _nodes(graph)
    plain, reading, again = (steps[-1] for steps in _numbered(
        graph, ["exit f", "10: c = assign 0", "5: x = assign p"],
        ["exit f", "10: c = assign 0", "7: condition c",
         "5: x = assign p"],
        ["exit f", "10: c = assign 0", "7: condition c",
         "5: x = assign p"]))
    assert plain.cur == reading.cur
    assert plain.seg.locals == reading.seg.locals
    assert plain.seg.marks < reading.seg.marks
    entry = ids["entry f"]
    assert plain.step(entry).seg is None
    assert reading.state != plain.state and again.state == reading.state
    for walk in (reading, again):
        with pytest.raises(EncodeError, match="local 'c' read before any"):
            walk.step(entry)
        assert (walk.state, entry) not in walk.run.steps

    ast = frontend.parse_contract(LATE_LOCAL_SRC)
    target = TargetSpec(5, frontend.parse_expression_at(ast, 7, "y > 3"),
                        "y > 3")
    _ast, program, graph = prepare(LATE_LOCAL_SRC)
    root = encoder.Numbering.empty(program, graph, smt_terms.Ctx()).step(
        graph.target_node(5), target.safety)
    entry = graph.fn_cfgs["f"].entry_id
    for _ in range(2):
        with pytest.raises(EncodeError, match="safety reads local 'y'"):
            root.step(entry)
        assert (root.state, entry) not in root.run.steps


@pytest.fixture
def kept_evaluations(monkeypatch):
    """Every value an ``_Evaluator`` answers from its memo, to a call from
    outside or to one of its own recursive calls, is checked against a
    fresh evaluator under the env as it is now; returns the count of such
    answers.  A greedy round keeps one evaluator until a move changes its
    env, so a value it kept is never stale.  (A constant or a variable is
    read where it stands, never kept.)"""
    real = smt_solve._Evaluator.eval
    checking = []
    kept = [0]

    def evaluate(self, term):
        if checking or id(term) not in self.memo:
            return real(self, term)
        kept[0] += 1
        checking.append(term)
        try:
            fresh = real(smt_solve._Evaluator(dict(self.env), self.subst),
                         term)
        finally:
            checking.pop()
        assert self.memo[id(term)] == fresh, smt_solve.print_term(term)
        return fresh

    monkeypatch.setattr(smt_solve._Evaluator, "eval", evaluate)
    return kept


def test_a_kept_evaluation_is_never_stale(corpus, kept_evaluations):
    """On multi_tx (eager and lazy), loop_sum and 60 generated programs the
    greedy search's kept evaluations answer often, and always as a fresh
    one would, so every value, and every model, is the one an evaluator
    per call gives."""
    for lazy_check in (False, True):
        synthesize(corpus["multi_tx"], lazy_check=lazy_check)
    synthesize(corpus["loop_sum"])
    for seed in range(7000, 7060):
        synthesize(_annotated(seed), limits=Limits(max_walks=20,
                                                   wall_timeout=60))
    assert kept_evaluations[0] > 1000


@pytest.fixture
def kept_solves(monkeypatch):
    """(status, status from empty) of every solve that started from a kept
    reduction: each is decided again from empty, with the same budget.
    Not with the run's deadline: these second solves spend the run's wall
    clock, and one cut short by it answers ``unknown``, which is no answer
    to compare."""
    real = smt_solve.solve_commands
    pairs = []

    def status(*args):
        try:
            return real(*args).status
        except smt_solve.SmtUnknown:
            return "unknown"

    def extends(script, base):
        """Whether `base` is a kept reduction the script's solve starts
        from: it is not empty, its clause chain is the script's or one the
        script's extends, and its assertions outside the chain are among
        the script's."""
        if base is None or (base.chain is None and not base.loose):
            return False
        cell = script.chain
        depth = 0 if base.chain is None else base.chain.length
        while cell is not None and cell.length > depth:
            cell = cell.parent
        return cell is base.chain \
            and base.loose <= frozenset(script.asserts)

    def solve_twice(ctx, script, budget=None, deadline=None, base=None,
                    model=True):
        result = real(ctx, script, budget, deadline, base, model)
        if extends(script, base):
            pairs.append((result.status,
                          status(ctx, script, budget, None, None, False)))
        return result

    monkeypatch.setattr(smt_solve, "solve_commands", solve_twice)
    return pairs


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow", "token",
                                  "multi_tx"])
def test_a_kept_reduction_changes_no_answer(corpus, kept_solves, name,
                                            heuristic, lazy_check):
    """A solve that starts from its nearest SAT ancestor's reduction gives
    the answer a solve of the whole script from empty gives."""
    synthesize(corpus[name], heuristic=heuristic, lazy_check=lazy_check)
    assert all(kept == whole for kept, whole in kept_solves)
    if name in ("token", "multi_tx"):
        assert len(kept_solves) > 50


def test_a_solve_from_a_base_is_handed_only_what_the_base_lacks(
        corpus, monkeypatch):
    """On multi_tx (eager) every solve from a kept reduction is handed
    exactly the script's assertions that are not the base's, in the
    script's order: 1.47 on average of about 30.  Only the first check
    starts from empty without asking for a model."""
    real = smt_solve._solve
    handed, whole, from_empty = [], [], []

    def solve(ctx, script, new, base, model, *rest):
        if base is smt_solve.EMPTY:
            from_empty.append(model)
        else:
            have = set(base.loose) | set(base.chain or ())
            assert [id(a) for a in new] \
                == [id(a) for a in script.asserts if a not in have]
            handed.append(len(new))
            whole.append(len(script.asserts))
        return real(ctx, script, new, base, model, *rest)

    monkeypatch.setattr(smt_solve, "_solve", solve)
    assert synthesize(corpus["multi_tx"]).status == "found"
    assert len(handed) > 2000
    assert sum(handed) < 1.6 * len(handed)
    assert sum(whole) > 25 * len(whole)
    assert from_empty.count(False) == 1


def test_equal_clause_sequences_share_one_chain_and_one_answer(corpus,
                                                               check_log):
    """Inside a transaction its account clauses move with the frontier;
    at the function's entry they are the entry node's own.  A walk and
    its extension by that entry split one clause sequence differently
    across their nodes: they share one clause chain, and on multi_tx
    (eager) the extension is answered from the walk's entry in the run's
    table every time (279 checks)."""
    source = corpus["multi_tx"]
    synthesize(source)
    _ast, program, graph = prepare(source)
    checked = {nodes for nodes, _status, _reason in check_log}
    pairs = {nodes for nodes, _status, reason in check_log
             if graph.node(nodes[-1]).kind == "entry"
             and nodes[:-1] in checked}
    assert len(pairs) > 200
    assert all(reason == "repeated" for nodes, _status, reason in check_log
               if nodes in pairs)
    ctx = SolverSession().terms
    for nodes in sorted(pairs)[:20]:
        inside = ssa_number(Walk(nodes[:-1], graph), program, ctx=ctx)
        entry = ssa_number(Walk(nodes, graph), program, ctx=ctx)
        assert inside.moving and not entry.moving
        assert inside.chain is not entry.chain
        assert inside.clause_chain is entry.clause_chain
        assert inside.clauses == entry.clauses


def _annotated(seed):
    """A random program with a random statement annotated as the target."""
    import random
    from genprog import random_source
    from minisol.frontend import parse_contract
    from minisol.lang import iter_statements

    source = random_source(seed)
    ast = parse_contract(source)
    lines = sorted({s.line for fn in ast.functions
                    for s in iter_statements(fn.body)})
    line = random.Random(seed).choice(lines)
    src_lines = source.splitlines()
    src_lines[line - 1] += "  // @target"
    return "\n".join(src_lines) + "\n"


def test_a_kept_reduction_changes_no_answer_on_random_programs(kept_solves):
    """The same on 60 generated programs, 40 walks each at most."""
    for seed in range(7000, 7060):
        synthesize(_annotated(seed), limits=Limits(max_walks=40,
                                                   wall_timeout=10))
    assert all(kept == whole for kept, whole in kept_solves)
    assert len(kept_solves) > 500


@pytest.fixture
def reused_models(monkeypatch):
    """Counts over the SAT solves whose model search started from their
    base's model: `solves`, `reused` (the solve kept the model that search
    started from), `held` (it kept it without a greedy round: every
    conjunct ``_Reuse.holds`` evaluated held), `bound` (variables the
    solves bind to a definition that reads a variable) and `moved` (those
    whose value moved from the one the base's model gives them, although
    the search solved each one's definition back to it; a variable bound
    to a constant takes the constant, which no search can move back, so
    it is not counted).  Each such solve
    is checked again in full first.  Its model values no variable its
    substitution binds, and under the model and the whole substitution
    every assertion of the script holds, the base's and the new ones; none
    is skipped, as the solve's own self-check skips the base's whose
    variables kept their values."""
    real_solve, real_start = smt_solve._solve, smt_solve._Reuse.start
    real_holds = smt_solve._Reuse.holds
    starts = []
    counts = {"solves": 0, "reused": 0, "held": 0, "bound": 0, "moved": 0}

    def start(self, residual):
        env = real_start(self, residual)
        starts.append(env)
        return env

    def holds(self, residual, env):
        out = real_holds(self, residual, env)
        counts["held"] += out
        return out

    def solve(ctx, script, asserts, base, *rest):
        starts.clear()
        result = real_solve(ctx, script, asserts, base, *rest)
        if base.env is None or result.status != "sat":
            return result
        kept = result.reduction
        assert [var.val for var in kept.subst if var.val in kept.env] == []
        evaluator = smt_solve._Evaluator(kept.env, kept.subst)
        assert [smt_solve.print_term(a) for a in kept.checked
                if evaluator.eval(a) is not True] == []
        bound = [var for var in list(kept.subst)[len(base.subst):]
                 if kept.subst[var].free]
        counts["solves"] += 1
        counts["reused"] += any(env is kept.env for env in starts)
        counts["bound"] += len(bound)
        counts["moved"] += sum(evaluator.eval(var) != base.env.get(var.val, 0)
                               for var in bound)
        return result

    monkeypatch.setattr(smt_solve._Reuse, "start", start)
    monkeypatch.setattr(smt_solve._Reuse, "holds", holds)
    monkeypatch.setattr(smt_solve, "_solve", solve)
    return counts


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow", "token",
                                  "multi_tx"])
def test_a_reused_model_satisfies_the_whole_script(corpus, reused_models,
                                                   name, heuristic,
                                                   lazy_check):
    """A model search that starts from the base's model, and a self-check
    that evaluates only what moved from it, give a model of the whole
    script.  On multi_tx most solves keep the base's model, 1807 of 1857
    without a greedy round, and solving a new binding's definition back
    keeps its variable's value for more than seven bindings in eight
    whose definition reads a variable (all 1085)."""
    synthesize(corpus[name], heuristic=heuristic, lazy_check=lazy_check)
    if (name, heuristic, lazy_check) == ("multi_tx", "floyd-warshall",
                                         False):
        assert reused_models["reused"] > 500
        assert reused_models["held"] >= 1800
        assert reused_models["moved"] * 8 < reused_models["bound"]


def test_a_reused_model_satisfies_the_whole_script_on_random_programs(
        reused_models):
    """The same on 60 generated programs, 40 walks each at most."""
    for seed in range(7000, 7060):
        synthesize(_annotated(seed), limits=Limits(max_walks=40,
                                                   wall_timeout=10))
    assert reused_models["reused"] > 400


@pytest.mark.parametrize("lazy_check", [False, True])
def test_no_check_of_multi_tx_is_bit_blasted(corpus, monkeypatch, lazy_check):
    """Every check of multi_tx is decided at word level or by the greedy
    model search.  A search from the base's model that fails starts again
    from zeros, as without a base, before anything is bit-blasted."""
    def blaster(*_args):
        raise AssertionError("a check was bit-blasted")

    monkeypatch.setattr(smt_solve, "Blaster", blaster)
    assert synthesize(corpus["multi_tx"],
                      lazy_check=lazy_check).status == "found"


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
def test_case_split_changes_no_answer(corpus, monkeypatch, check_log,
                                      heuristic, lazy_check):
    """The split on ite conditions only decides early what bit-blasting
    decides.  With ``_split`` patched to decide nothing, every residual it
    decided goes on to Blaster and SatSolver.  On token and 60 generated
    programs (20 walks each at most) every check keeps its walk, status
    and reason, and every run its status, walk count and reason.  A found
    sequence may move, since a leaf's model need not be CDCL's; each one
    replays.  On token the split decides an unsat check and a sat one.  A
    run in which the split decided nothing is deterministic and would be
    the same with the patch, so only the others are run again."""
    sources = [(corpus["token"], Limits())]
    sources += [(_annotated(seed), Limits(max_walks=20, wall_timeout=60))
                for seed in range(7000, 7060)]
    decided = Counter()
    split = smt_solve._split

    def recorded(*args):
        out = split(*args)
        if out is not None:
            decided["sat" if isinstance(out, dict) else out.status] += 1
        return out

    def run(source, limits):
        check_log.clear()
        result = synthesize(source, heuristic=heuristic,
                            lazy_check=lazy_check, limits=limits)
        assert result.reason != "timeout"
        if result.sequence is not None:
            report = replay_file(source, to_json(result.sequence))
            assert report.target_hit and report.safety_value
        return (result.status, result.walks_explored, result.reason,
                list(check_log))

    monkeypatch.setattr(smt_solve, "_split", recorded)
    with_split = []
    for source, limits in sources:
        before = sum(decided.values())
        outcome = run(source, limits)
        if sum(decided.values()) > before:
            with_split.append((source, limits, outcome))
    assert decided["unsat"] > 0 and decided["sat"] > 0
    monkeypatch.setattr(smt_solve, "_split", lambda *args: None)
    for source, limits, outcome in with_split:
        assert run(source, limits) == outcome


def _found_model_round_trip(source, heuristic, monkeypatch, tmp_path):
    """Run `source` with every script dumped and none bit-blasted; the
    found walk's dump is its script's text, and ``solve_text`` gives its
    model back.  Returns that model."""
    def blaster(*_args):
        raise AssertionError("a check was bit-blasted")
    monkeypatch.setattr(smt_solve, "Blaster", blaster)
    check = SolverSession.check
    last = []

    def recorded(self, smt_script, *args):
        result = check(self, smt_script, *args)
        last[:] = [smt_script, result]
        return result
    monkeypatch.setattr(SolverSession, "check", recorded)
    result = synthesize(source, heuristic=heuristic,
                        solver=SolverConfig(emit_dir=str(tmp_path)))
    assert result.status == "found"
    smt_script, found = last
    dump = max(tmp_path.iterdir()).read_text()
    assert dump == smt_script.text
    answer = parse_solver_output(smt_solve.solve_text(dump), smt_script)
    assert answer.model == found.model
    return found.model


def test_token_found_model_is_the_whole_scripts(corpus, monkeypatch,
                                                tmp_path):
    """The found walk's script, as dumped and solved as text by the
    bundled solver's process entry point (``solve_text``, which ``python
    -m minisol.smt`` runs), gives the model the in-process run found, and
    neither solve bit-blasts: cases on ite conditions decide token's
    residuals at word level.  (Solving every check of token through the
    external process takes minutes, too long for CI's agreement step.)"""
    model = _found_model_round_trip(corpus["token"], "state-var",
                                    monkeypatch, tmp_path)
    assert len(model) > 10


def test_multi_tx_found_model_is_the_whole_scripts(corpus, monkeypatch,
                                                   tmp_path):
    """The same for multi_tx (floyd-warshall, eager), whose counter
    comparisons folding solves for a variable (``counter + 1 = 5`` is
    ``counter = 4``) before they are bound, and in which the walk's
    solves start from their parents' models; the model is the one a
    whole-script solve from text gives.  (CI's agreement step runs
    every check through the external process, too slow for multi_tx.)"""
    fired = Counter()
    fold_linear = smt_solve._fold_linear

    def recorded(*args):
        out = fold_linear(*args)
        fired[out is not None] += 1
        return out
    monkeypatch.setattr(smt_solve, "_fold_linear", recorded)
    _found_model_round_trip(corpus["multi_tx"], "floyd-warshall",
                            monkeypatch, tmp_path)
    assert fired[True] > 0


LOOP_GUARD_SRC = """contract C {
    uint8 g0 = 3;
    function f1() public {
        uint16 w2 = 0;
        while (w2 < 2) {
            if ((256 + 255) >= (65535 + w2)) {
                g0 = g0;  // @target
            }
            w2 += 1;
        }
    }
}
"""


def test_a_value_a_binding_moves_is_checked_where_it_is_read(monkeypatch):
    """Walking back through the first loop iteration binds the branch
    condition's ``65535 + w2`` to ``w2!t0!1 - 1``.  Solving that back to
    its value in the base's model moves ``w2!t0!1``, which an old
    conjunct, the loop guard ``w2!t0!1 + 1 < 2``, reads: the guard must be
    evaluated again, and it fails, so the greedy rounds repair the model.
    A search that evaluated only the new conjuncts kept a model the
    self-check rejected."""
    real = smt_solve._Reuse.holds
    broken = []

    def holds(self, residual, env):
        evaluator = smt_solve._Evaluator(env, {})
        broken.extend(a for a in residual
                      if id(a) in self.kept and not evaluator.eval(a))
        return real(self, residual, env)

    monkeypatch.setattr(smt_solve._Reuse, "holds", holds)
    for heuristic in ("floyd-warshall", "state-var"):
        result = synthesize(LOOP_GUARD_SRC, heuristic=heuristic)
        assert (result.status, result.walks_explored) == ("found", 24)
    assert broken


@pytest.mark.parametrize("lazy_check", [False, True])
@pytest.mark.parametrize("heuristic", ["floyd-warshall", "state-var"])
@pytest.mark.parametrize("name", ["guess_check", "two_tx_overflow", "token",
                                  "multi_tx"])
def test_run_context_changes_no_answer(corpus, check_log, name, heuristic,
                                       lazy_check):
    """One term context per run, and the answers it lets the engine reuse,
    change nothing.  Every check answered from the run's table (a script
    that repeats an earlier one term for term) gets the answer a solve of
    its whole walk gives in a context of its own.  A complete walk is
    never answered from the table: it needs a model."""
    source = corpus[name]
    target = extract_targets(source)[0]
    synthesize(source, heuristic=heuristic, lazy_check=lazy_check)
    repeated = [(nodes, status) for nodes, status, reason in check_log
                if reason == "repeated"]
    _ast, program, graph = prepare(source)
    session = SolverSession()
    for nodes, status in repeated:
        assert nodes[-1] != graph.start_id
        fresh = session.check(encode(ssa_number(Walk(nodes, graph), program,
                                                safety=target.safety)))
        assert fresh.status == status, nodes
    if (name, heuristic) == ("token", "state-var"):
        assert repeated


@pytest.mark.parametrize("lazy", [False, True])
def test_every_check_resumes_from_one_runs_numbering(corpus, monkeypatch,
                                                     lazy):
    """The engine numbers the root walk once; the root's result is not
    SAT.  Every check is handed the result of its nearest checked ancestor
    (the root's included), whose numbering is of one run, and hands its own
    walk's numbering back; in eager mode the handed numbering is the
    parent's, one node short."""
    search = engine.find_minimal_satisfiable_walk
    handed = []

    def recorded_search(*args, check, prefix=None, **kwargs):
        assert prefix is not None and prefix.numbering.length == 1
        assert prefix.status != "sat"

        def checked(walk):
            result = check(walk)
            handed.append((len(walk.nodes), walk.prefix.numbering,
                           result.numbering))
            return result
        return search(*args, check=checked, prefix=prefix, **kwargs)

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


@pytest.mark.parametrize("solver_answers", [True, False])
def test_only_a_decided_answer_is_reused(corpus, monkeypatch, solver_answers):
    """Every walk is checked twice in a row.  The second check of an
    incomplete walk answered sat or unsat takes that answer from the
    table, unsubmitted.  A complete walk is solved again, and with a
    solver that answers only ``unknown`` every check is submitted
    again."""
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
        else:
            assert second.reason == "repeated"
    if not solver_answers:
        assert submitted == 2 * len(pairs)


def test_a_script_answered_from_the_table_is_not_encoded(corpus, monkeypatch,
                                                        check_log):
    """The answer table is looked up on a script's clause chain, whose
    last clause is the safety condition, before ``encode``: every script encoded is
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


def test_only_a_complete_walk_builds_a_symbol_table(corpus, monkeypatch):
    """A check that needs only sat or unsat reads its assertions alone: on
    an in-process eager run of multi_tx only the walks that reach
    ``start``, whose checks need a model, build a symbol table."""
    real = SsaScript.symbols
    built = []

    def symbols(self):
        built.append(self.complete)
        return real.__get__(self, SsaScript)

    monkeypatch.setattr(SsaScript, "symbols", property(symbols))
    assert synthesize(corpus["multi_tx"]).status == "found"
    assert built and all(built)


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
    """A run's frontend, IR, CFG+, terms, scripts and closures are freed by
    reference counting alone: no recursive closure refers to itself, and
    no term keeps a table that refers back to it.  A multi_tx run used to
    leave about a million objects in reference cycles; none are left, by
    it, by token under state-var, or by a generated program (20 walks at
    most)."""
    runs = [(corpus["multi_tx"], {}),
            (corpus["token"], {"heuristic": "state-var"}),
            (_annotated(7000), {"limits": Limits(max_walks=20)})]
    for source, kwargs in runs:
        gc.collect()
        gc.disable()
        try:
            synthesize(source, **kwargs)
            assert gc.collect() == 0
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
