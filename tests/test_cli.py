import json
import re
import shlex
import subprocess
import sys

import pytest

from conftest import CORPUS


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "minisol.cli"] + list(args),
                          capture_output=True, text=True)


def summary_of(proc):
    line = proc.stderr.strip().splitlines()[-1]
    m = re.fullmatch(r"result=(\w+) walks=(\d+) time_ms=(\d+)", line)
    assert m, proc.stderr
    return m.group(1), int(m.group(2)), int(m.group(3))


def msol(name):
    return str(CORPUS / ("%s.msol" % name))


def test_run_defaults_emit_json(tmp_path):
    out = tmp_path / "seq.json"
    proc = run_cli(msol("guess_check"), "--out", str(out))
    assert proc.returncode == 0
    result, walks, _t = summary_of(proc)
    assert result == "found" and walks > 0
    obj = json.loads(out.read_text())
    assert len(obj["transactions"]) == 3
    assert obj["transactions"][1]["args"] == ["10", "1"]


def test_not_found_exit_code():
    proc = run_cli(msol("contradiction"))
    assert proc.returncode == 1
    assert summary_of(proc)[0] == "notfound"


def test_missing_solver_is_exit_2():
    proc = run_cli(msol("guess_check"), "--solver-cmd", "/no/such/solver")
    assert proc.returncode == 2
    assert "solver" in proc.stderr
    assert summary_of(proc)[0] == "error"


def python_solver(code):
    """A ``--solver-cmd`` that runs `code` in this interpreter."""
    return shlex.join([sys.executable, "-c", code])


@pytest.mark.parametrize("code", [
    "import sys; sys.exit(3)",             # crashes with no output
    "print('maybe')",                      # an answer that is none
])
def test_a_failing_external_solver_is_exit_2(code):
    """A crash, empty output or a malformed answer ends the run as an
    error, not as a pruned walk."""
    proc = run_cli(msol("guess_check"), "--solver-cmd", python_solver(code))
    assert proc.returncode == 2, proc.stderr
    assert "solver" in proc.stderr
    assert summary_of(proc)[0] == "error"


def test_an_external_solver_out_of_time_ends_the_run_timeout():
    """A solver still running at the deadline is killed; its check is
    unknown and the run ends with reason timeout, exit 1."""
    proc = run_cli(msol("guess_check"), "--timeout", "1", "--solver-cmd",
                   python_solver("import time; time.sleep(60)"))
    assert proc.returncode == 1, proc.stderr
    assert "no satisfiable walk: timeout" in proc.stderr
    assert summary_of(proc)[0] == "notfound"


def test_parse_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.msol"
    bad.write_text("contract {")
    proc = run_cli(str(bad))
    assert proc.returncode == 2
    assert summary_of(proc)[0] == "error"


def test_no_annotation_is_exit_2(tmp_path):
    src = tmp_path / "na.msol"
    src.write_text("contract C { uint256 x = 0; }\n")
    proc = run_cli(str(src))
    assert proc.returncode == 2


def test_target_line_selects_among_annotations(tmp_path):
    src = tmp_path / "two.msol"
    src.write_text("""contract T {
    uint256 a = 0;
    uint256 b = 0;
    function f() public {
        a = 1;  // @target
    }
    function g() public {
        b = 2;  // @target
    }
}
""")
    without = run_cli(str(src))
    assert without.returncode == 2          # ambiguous
    proc = run_cli(str(src), "--target-line", "8", "--out", "/dev/null")
    assert proc.returncode == 0
    proc = run_cli(str(src), "--target-line", "3")
    assert proc.returncode == 2             # not an annotated line


def test_a_run_parses_its_source_once(tmp_path, monkeypatch, capsys):
    """Also with ``--emit-dot``, whose graph is the searched one: one
    parse and one lowering per run.  So too in ``--replay`` mode, and in
    ``--mutants`` mode but for one parse and lowering of each mutant."""
    from minisol import cli, engine
    from minisol.frontend import Parser
    parses, lowerings = [], []
    real, real_lower = Parser.parse_contract, engine.lower

    def counting(self):
        parses.append(self)
        return real(self)

    def counting_lower(ast):
        lowerings.append(ast)
        return real_lower(ast)
    monkeypatch.setattr(Parser, "parse_contract", counting)
    monkeypatch.setattr(engine, "lower", counting_lower)
    out, dot = tmp_path / "seq.json", tmp_path / "graph.dot"
    argv = [msol("guess_check"), "--target-line", "6", "--out", str(out)]
    for extra in ([], ["--emit-dot", str(dot)]):
        parses.clear(), lowerings.clear()
        assert cli.main(argv + extra) == 0
        assert len(parses) == 1 and len(lowerings) == 1
        assert capsys.readouterr().err.startswith("result=found ")
    assert dot.read_text().startswith("digraph")

    mutants = tmp_path / "mutants.json"
    mutants.write_text(json.dumps([
        {"kind": "condition", "line": 5, "original": "a > b",
         "mutated": "a >= b"},
        {"kind": "assignment_rhs", "line": 6, "original": "1",
         "mutated": "2"}]))
    for argv, runs in (
            ([msol("guess_check"), "--replay", str(out)], 1),
            ([msol("mutant_kill"), "--mutants", str(mutants), "--out",
              str(tmp_path / "kills.json")], 3)):
        for extra in ([], ["--emit-dot", str(dot)]):
            parses.clear(), lowerings.clear()
            assert cli.main(argv + extra) == 0
            assert len(parses) == len(lowerings) == runs
            assert capsys.readouterr().err.startswith("result=found ")


def test_byte_determinism_modulo_time(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / ("run%d.json" % i)
        proc = run_cli(msol("two_tx_overflow"), "--out", str(out))
        assert proc.returncode == 0
        obj = json.loads(out.read_text())
        obj["time_ms"] = 0
        outs.append(json.dumps(obj, indent=2))
    assert outs[0] == outs[1]


def test_emit_dot_and_smt(tmp_path):
    dot = tmp_path / "g.dot"
    smt_dir = tmp_path / "smt"
    proc = run_cli(msol("ctor_target"), "--emit-dot", str(dot),
                   "--emit-smt", str(smt_dir), "--out", "/dev/null")
    assert proc.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph cfg_plus")
    dumps = sorted(smt_dir.iterdir())
    assert dumps and dumps[0].name == "000001.smt2"
    assert "(check-sat)" in dumps[0].read_text()


@pytest.mark.parametrize("name, extra", [
    ("guess_check", ["--solver-cmd", "%s -m minisol.smt" % sys.executable]),
    ("token", ["--heuristic", "state-var"]),
])
def test_emit_smt_dumps_are_quantifier_and_function_free(tmp_path, name,
                                                         extra):
    """Mappings are SMT-LIB arrays: every script of two mapping contracts
    is QF_ABV with no forall and no declare-fun, and the mappings are read
    and written in them.  guess_check's scripts also go to the bundled
    solver as an external process."""
    smt_dir = tmp_path / "smt"
    proc = run_cli(msol(name), "--emit-smt", str(smt_dir), "--out",
                   "/dev/null", *extra)
    assert proc.returncode == 0, proc.stderr
    texts = [p.read_text() for p in sorted(smt_dir.iterdir())]
    assert texts
    assert [t for t in texts if "forall" in t or "declare-fun" in t] == []
    assert all("(set-logic QF_ABV)" in t for t in texts)
    assert any("(select " in t for t in texts)
    assert any("(store " in t for t in texts)


def test_replay_mode(tmp_path):
    out = tmp_path / "seq.json"
    assert run_cli(msol("guess_check"), "--out", str(out)).returncode == 0
    proc = run_cli(msol("guess_check"), "--replay", str(out))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["target_hit"] is True and report["hit_at_tx"] == 2
    # a sequence that misses reports exit 1
    miss = json.loads(out.read_text())
    miss["transactions"] = [miss["transactions"][0],
                            miss["transactions"][2]]
    missing = tmp_path / "miss.json"
    missing.write_text(json.dumps(miss))
    proc = run_cli(msol("guess_check"), "--replay", str(missing))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["target_hit"] is False


def test_mutants_mode(tmp_path):
    mutants = tmp_path / "mutants.json"
    mutants.write_text(json.dumps([
        {"kind": "condition", "line": 5, "original": "a > b",
         "mutated": "a >= b"},
        {"kind": "condition", "line": 5, "original": "a > b",
         "mutated": "a > b"},
    ]))
    out = tmp_path / "res.json"
    proc = run_cli(msol("mutant_kill"), "--mutants", str(mutants),
                   "--out", str(out))
    assert proc.returncode == 0
    obj = json.loads(out.read_text())
    statuses = [m["status"] for m in obj["mutants"]]
    assert statuses == ["killed", "no_kill_found"]
    assert obj["mutants"][0]["kill"]["strong"] is True


def test_no_mode_leaves_a_file_open(tmp_path):
    """The input, the --replay sequence and the --mutants list are closed
    once read: under ``-W error::ResourceWarning`` no mode reports an
    unclosed file."""
    def run_strict(*args):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "minisol.cli", *args], capture_output=True, text=True)

    seq, mutants = tmp_path / "seq.json", tmp_path / "mutants.json"
    mutants.write_text(json.dumps([{"kind": "condition", "line": 5,
                                    "original": "a > b",
                                    "mutated": "a >= b"}]))
    runs = [run_strict(msol("guess_check"), "--out", str(seq))]
    runs.append(run_strict(msol("guess_check"), "--replay", str(seq)))
    runs.append(run_strict(msol("mutant_kill"), "--mutants", str(mutants),
                           "--out", str(tmp_path / "res.json")))
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("flag", ["--replay", "--mutants", "--emit-dot",
                                  "--out", "--emit-smt"])
def test_a_bad_path_is_exit_2_with_a_summary(tmp_path, flag):
    """A path that cannot be read (--replay, --mutants) or written
    (--emit-dot, --out; --emit-smt under a regular file) is an error: exit
    2 and the summary line, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = {"--replay": tmp_path / "missing.json",
            "--mutants": tmp_path / "missing.json",
            "--emit-dot": tmp_path / "no" / "such" / "graph.dot",
            "--out": tmp_path / "no" / "such" / "seq.json",
            "--emit-smt": blocker / "dumps"}[flag]
    proc = run_cli(msol("guess_check"), flag, str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert summary_of(proc)[0] == "error"


def test_an_internal_error_is_exit_3_with_a_summary(monkeypatch, capsys):
    """An exception that is neither a MiniSolError nor an OSError (here a
    RecursionError, as a deeply nested expression can raise) is a fault of
    the tool, not an answer: exit 3 and the error summary, never exit 1,
    which means "not found"."""
    from minisol import cli

    def failing(*_args, **_kwargs):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "synthesize", failing)
    assert cli.main([msol("guess_check"), "--out", "/dev/null"]) == 3
    err = capsys.readouterr().err
    assert "RecursionError" in err
    line = err.strip().splitlines()[-1]
    assert re.fullmatch(r"result=error walks=0 time_ms=\d+", line), err


def test_lazy_check_flag_finds_fewer_walks(tmp_path):
    eager = run_cli(msol("guess_check"), "--out", "/dev/null")
    lazy = run_cli(msol("guess_check"), "--lazy-check", "--out", "/dev/null")
    assert eager.returncode == lazy.returncode == 0
    assert summary_of(lazy)[1] < summary_of(eager)[1]


def test_max_walks_flag():
    proc = run_cli(msol("multi_tx"), "--max-walks", "3")
    assert proc.returncode == 1
    assert summary_of(proc)[1] <= 3


def test_no_replay_check_flag(tmp_path):
    proc = run_cli(msol("overflow"), "--no-replay-check", "--out",
                   "/dev/null")
    assert proc.returncode == 0


def test_bad_heuristic_name():
    proc = run_cli(msol("guess_check"), "--heuristic", "nope")
    assert proc.returncode == 2


def test_external_solver_cmd_round_trip(tmp_path):
    out = tmp_path / "seq.json"
    proc = run_cli(msol("ctor_target"), "--solver-cmd",
                   "%s -m minisol.smt" % sys.executable, "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["transactions"][0]["function"] \
        == "<constructor>"
