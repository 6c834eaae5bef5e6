"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Engine runs use default settings (floyd-warshall heuristic, bundled solver
in process, replay verification on) unless a criterion says otherwise.
"""

import json
import random
import subprocess
import sys

from conftest import CORPUS, corpus_source
from genprog import (eval_straight_line, random_source, random_walk,
                     straight_line_program, straight_line_walk)
from ref_oracles import (SearchBounds, definition_symbols,
                         exhaustive_search, expected_plus_edges)

from minisol.cfg import to_dot
from minisol.encoder import SolverSession, encode, ssa_number
from minisol.engine import prepare, synthesize
from minisol.frontend import extract_targets
from minisol.mutation import MutantSpec, run_mutants
from minisol.oracle import replay


def _report(criterion, ok, detail):
    print("ACCEPTANCE criterion %s: %s (%s)"
          % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, detail


# -- criterion 1: corpus end-to-end ------------------------------------------

CORPUS_ROWS = ["overflow", "guess_check", "multi_tx", "condition_check",
               "msg_value_check", "two_tx_overflow", "internal_call",
               "token", "distinct_callers", "address_scores", "ctor_target"]


def test_criterion_1_corpus_end_to_end(engine_cache):
    details = []
    ok = True
    for name in CORPUS_ROWS:
        result = engine_cache.run(name)
        found = result.status == "found"
        in_time = result.time_ms < 60000
        verified = found and result.report.target_hit \
            and result.report.safety_value
        ok = ok and found and in_time and verified
        details.append("%s: %s %dms %dw" % (name, result.status,
                                            result.time_ms,
                                            result.walks_explored))
    _report(1, ok, "; ".join(details))


# -- criterion 2: heuristic comparison on the auction -------------------------

def test_criterion_2_heuristic_growth():
    template = corpus_source("multi_tx")
    fw_counts, sv_counts = [], []
    for k in range(1, 6):
        source = template.replace("threshold = 5", "threshold = %d" % k)
        fw = synthesize(source, heuristic="floyd-warshall")
        sv = synthesize(source, heuristic="state-var")
        assert fw.status == sv.status == "found"
        fw_counts.append(fw.walks_explored)
        sv_counts.append(sv.walks_explored)
    ratios = [s / f for s, f in zip(sv_counts, fw_counts)]
    ok = (sv_counts[4] < fw_counts[4]
          and all(r2 <= r1 for r1, r2 in zip(ratios, ratios[1:]))
          and 100 <= fw_counts[4] <= 5000)
    _report(2, ok, "fw=%s sv=%s ratios=%s"
            % (fw_counts, sv_counts, ["%.3f" % r for r in ratios]))


# -- criterion 3: mutant kill --------------------------------------------------

def test_criterion_3_mutant_kill():
    source = corpus_source("mutant_kill")
    killed = run_mutants(source, [MutantSpec("condition", 5, "a > b",
                                             "a >= b")])[0]
    equivalent = run_mutants(source, [MutantSpec("condition", 5, "a > b",
                                                 "a > b")])[0]
    tx = killed.sequence.transactions[1] if killed.sequence else None
    ok = (killed.status == "killed" and killed.kill.killed
          and tx is not None and tx.args[0] == tx.args[1]
          and equivalent.status == "no_kill_found")
    _report(3, ok, "killed=%s a==b=%s equivalent=%s"
            % (killed.status, tx and tx.args, equivalent.status))


# -- criterion 4: SSA property suite ------------------------------------------

def _scan_single_assignment(script):
    defs = definition_symbols(script)
    return len(defs) == len(set(defs))


def _scan_monotone(script):
    last = {}
    for sym in definition_symbols(script):
        base, _, ver = sym.rpartition("!")
        ver = int(ver)
        if ver <= last.get(base, -1):
            return False
        last[base] = ver
    gens = {}
    for clause in script.clauses:
        if clause[0] == "map_write":
            _, m, _gf, g_to, _k, _v, _p = clause
            if g_to <= gens.get(m, 0):
                return False
            gens[m] = g_to
    return True


def test_criterion_4_ssa_properties_500_walks():
    rng = random.Random(42)
    failures = 0
    walks = 0
    programs = 0
    while walks < 500:
        source = random_source(5000 + programs)
        programs += 1
        _ast, program, graph = prepare(source)
        for _ in range(20):
            if walks >= 500:
                break
            walk = random_walk(rng, graph)
            script = ssa_number(walk, program)
            walks += 1
            if not (_scan_single_assignment(script)
                    and _scan_monotone(script)):
                failures += 1
    _report(4, failures == 0,
            "%d walks over %d programs, %d failures"
            % (walks, programs, failures))


# -- criterion 5: encoder/oracle equivalence -----------------------------------

def test_criterion_5_encoder_matches_replay_500():
    rng = random.Random(77)
    session = SolverSession()
    mismatches = 0
    checked = 0
    trials = 0
    while checked < 500:
        trials += 1
        program, fn, params, instrs = straight_line_program(rng)
        walk, _graph = straight_line_walk(program)
        script = ssa_number(walk, program)
        result = session.check(encode(script))
        assert result.status == "sat"
        inputs = {name: result.model["%s!t1!0" % name]
                  for name, _t in params}
        expected, _table = eval_straight_line(instrs[:-1], params, inputs)
        counts = {}
        expect_by_sym = {}
        for name, value in expected:
            counts[name] = counts.get(name, 0) + 1
            expect_by_sym["%s!t1!%d" % (name, counts[name])] = value
        for sym, value in expect_by_sym.items():
            got = result.model[sym]
            if isinstance(got, bool):
                got = int(got)
            if got != value:
                mismatches += 1
        checked += 1
    # the wraparound case is pinned explicitly
    src = """contract W {
    uint16 x = 0;
    function f() public {
        x = 65535;
        x += 1;
        x += 0;
    }
}
"""
    _a, program, graph = prepare(src)
    cfg = graph.fn_cfgs["f"]
    from minisol.explorer import Walk
    exec_order = ([graph.start_id, graph.ctor_cfg.entry_id]
                  + [n.id for n in graph.ctor_cfg.nodes if n.kind == "instr"]
                  + [graph.ctor_cfg.exit_id, graph.constructed_id,
                     cfg.entry_id]
                  + [n.id for n in cfg.nodes if n.kind == "instr"]
                  + [cfg.exit_id])
    result = session.check(encode(ssa_number(
        Walk(tuple(reversed(exec_order)), graph=graph), program)))
    wrap_ok = result.status == "sat" and result.model["x!3"] == 0
    ok = mismatches == 0 and wrap_ok
    _report(5, ok, "%d chains, %d mismatches, wraparound 65535+1=0: %s"
            % (checked, mismatches, wrap_ok))


# -- criterion 6: exhaustive-search agreement ----------------------------------

SEARCH_BOUNDS = {
    "guess_check": SearchBounds(max_calls=2, arg_values=tuple(range(12)),
                                callers=("A0",)),
    "overflow": SearchBounds(max_calls=2,
                             arg_values=(0, 1, 255, 256, 65535),
                             callers=("A0",)),
    "two_tx_overflow": SearchBounds(max_calls=2,
                                    arg_values=(0, 1, 255, 256, 65535),
                                    callers=("A0",)),
    "condition_check": SearchBounds(max_calls=1, arg_values=tuple(range(16))),
    "msg_value_check": SearchBounds(max_calls=1, arg_values=(0,),
                                    values=(0, 150)),
    "multi_tx": SearchBounds(max_calls=6, arg_values=(0, 150),
                             callers=("A0",)),
    "internal_call": SearchBounds(max_calls=1, arg_values=tuple(range(16))),
    "address_scores": SearchBounds(max_calls=2, arg_values=(0, 9001),
                                   callers=("A0",)),
    "distinct_callers": SearchBounds(max_calls=1, arg_values=(0,)),
    "ctor_target": SearchBounds(max_calls=0, arg_values=(0,)),
    "contradiction": SearchBounds(max_calls=1,
                                  arg_values=(0, 5, 10, 11, 255)),
    "token": SearchBounds(max_calls=2, arg_values=(0, 600000),
                          address_values=(0, 1), callers=("A0", "A1")),
    "loop_sum": SearchBounds(max_calls=1, arg_values=(0, 1, 2, 3),
                             callers=("A0",)),
}


def test_criterion_6_exhaustive_agreement(engine_cache):
    agreements = []
    ok = True
    for name, bounds in SEARCH_BOUNDS.items():
        source = corpus_source(name)
        target = extract_targets(source)[0]
        _ast, program, _graph = engine_cache.prepared(name)
        brute = exhaustive_search(program, target, bounds)
        engine = engine_cache.run(name)
        if brute is not None:
            agree = engine.status == "found"
            brute_report = replay(program, brute, target)
            agree = agree and brute_report.target_hit \
                and brute_report.safety_value \
                and engine.report.target_hit
        else:
            agree = engine.status == "notfound"
        ok = ok and agree
        agreements.append("%s:%s/%s" % (name,
                                        "hit" if brute else "none",
                                        engine.status))
    _report(6, ok, " ".join(agreements))


# -- criterion 7: structural CFG+ suite ----------------------------------------

def test_criterion_7_structural():
    ok = True
    details = []
    for path in sorted(CORPUS.glob("*.msol")):
        _ast, _program, graph = prepare(path.read_text())
        n_ctor = len(graph.ctor_cfg.nodes)
        n_fns = sum(len(c.nodes) for c in graph.fn_cfgs.values())
        count_ok = len(graph.nodes) == n_ctor + n_fns + 4
        edges_ok = set(graph.edges) == expected_plus_edges(graph)
        dot_ok = to_dot(graph).encode() == to_dot(graph).encode()
        ok = ok and count_ok and edges_ok and dot_ok
        details.append("%s:%s" % (path.stem,
                                  "ok" if count_ok and edges_ok and dot_ok
                                  else "FAIL"))
    _report(7, ok, " ".join(details))


# -- criterion 8: determinism ---------------------------------------------------

def test_criterion_8_byte_determinism(tmp_path):
    ok = True
    details = []
    for name in ("guess_check", "overflow", "distinct_callers"):
        artifacts = []
        for i in range(2):
            out = tmp_path / ("%s_%d.json" % (name, i))
            proc = subprocess.run(
                [sys.executable, "-m", "minisol.cli",
                 str(CORPUS / ("%s.msol" % name)), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            obj = json.loads(out.read_text())
            obj["time_ms"] = 0              # timing lives on stderr
            artifacts.append(json.dumps(obj, indent=2, sort_keys=False))
        same = artifacts[0] == artifacts[1]
        ok = ok and same
        details.append("%s:%s" % (name, "identical" if same else "DIFFERS"))
    _report(8, ok, " ".join(details))
