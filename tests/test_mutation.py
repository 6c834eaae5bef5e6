import itertools

import pytest

from minisol.engine import prepare, synthesize
from minisol.errors import MutationError
from minisol.frontend import Parser, parse_contract
from minisol.lang import BOOL
from minisol.mutation import (MutantSpec, apply_mutant, differential_kill,
                              gen_assignment_kill, gen_condition_kill,
                              gen_reachability_only, gen_width_kill,
                              load_mutant_specs, run_mutants)


def test_condition_xor_needs_equality(corpus):
    """assert(a>b) -> assert(a>=b): brute force over uint8 pairs shows the
    xor holds exactly when a == b; the engine must land there."""
    witnesses = {(a, b) for a, b in itertools.product(range(8), repeat=2)
                 if (a > b) != (a >= b)}
    assert witnesses == {(a, a) for a in range(8)}
    source = corpus["mutant_kill"]
    ast = parse_contract(source)
    spec = MutantSpec("condition", 5, "a > b", "a >= b")
    query = gen_condition_kill(ast, spec)
    assert query.target.line == 5
    assert query.target.safety.type_ is BOOL
    result = synthesize(source, target=query.target)
    assert result.status == "found"
    duel = result.sequence.transactions[1]
    assert duel.args[0] == duel.args[1]
    # differential replay: the original reverts, the mutant proceeds
    _ast, orig, _g = prepare(source)
    _ast2, mut, _g2 = prepare(apply_mutant(source, spec))
    kill = differential_kill(orig, mut, result.sequence)
    assert kill.killed and kill.strong


def test_equivalent_condition_mutant_notfound(corpus):
    source = corpus["mutant_kill"]
    ast = parse_contract(source)
    spec = MutantSpec("condition", 5, "a > b", "a > b")
    query = gen_condition_kill(ast, spec)
    result = synthesize(source, target=query.target)
    assert result.status == "notfound"


def test_condition_strictness_witness():
    """(x>0) -> (x>1): the only xor witness over uint8 is x == 1."""
    assert [x for x in range(256) if (x > 0) != (x > 1)] == [1]
    source = """contract C {
    uint8 hits = 0;
    function f(uint8 x) public {
        if (x > 0)
            hits += 1;
    }
}
"""
    ast = parse_contract(source)
    query = gen_condition_kill(ast, MutantSpec("condition", 4, "x > 0",
                                               "x > 1"))
    result = synthesize(source, target=query.target)
    assert result.status == "found"
    assert result.sequence.transactions[1].args == [1]


def test_condition_fragments_must_be_boolean(corpus):
    ast = parse_contract(corpus["mutant_kill"])
    with pytest.raises(MutationError):
        gen_condition_kill(ast, MutantSpec("condition", 5, "a + b", "a >= b"))


def test_assignment_rhs_infection():
    source = """contract Z {
    uint8 z = 0;
    function f(uint8 a, uint8 b) public {
        z = a + b;
    }
}
"""
    ast = parse_contract(source)
    spec = MutantSpec("assignment_rhs", 4, "a + b", "a + 1")
    query = gen_assignment_kill(ast, spec)
    result = synthesize(source, target=query.target)
    assert result.status == "found"
    tx = result.sequence.transactions[1]
    assert tx.args[1] != 1                  # b != 1 is the infection
    _a, orig, _g = prepare(source)
    _a2, mut, _g2 = prepare(apply_mutant(source, spec))
    kill = differential_kill(orig, mut, result.sequence)
    assert kill.killed and kill.weak


def test_assignment_identity_mutant_notfound():
    source = """contract Z {
    uint8 z = 0;
    function f(uint8 a) public {
        z = a;
    }
}
"""
    ast = parse_contract(source)
    query = gen_assignment_kill(ast, MutantSpec("assignment_rhs", 4, "a", "a"))
    assert synthesize(source, target=query.target).status == "notfound"


def test_double_vs_self_add_equivalent_under_wraparound():
    """z = 2*a vs z = a+a agree on every uint8 value, so no kill exists."""
    assert all(((2 * a) & 255) == ((a + a) & 255) for a in range(256))
    source = """contract Z {
    uint8 z = 0;
    function f(uint8 a) public {
        z = 2 * a;
    }
}
"""
    ast = parse_contract(source)
    query = gen_assignment_kill(ast, MutantSpec("assignment_rhs", 4, "2 * a",
                                                "a + a"))
    assert synthesize(source, target=query.target).status == "notfound"


WIDTH_SRC = """contract W {
    uint16 acc = 0;
    function f(uint8 x) public {
        acc = acc + x;
        acc = acc + x;
    }
}
"""


def test_width_kill_one_query_per_usage_line():
    spec = MutantSpec("width_change", 3, "uint8", "uint16")
    mutated = apply_mutant(WIDTH_SRC, spec)
    assert "function f(uint16 x)" in mutated
    queries = gen_width_kill(parse_contract(mutated), spec)
    assert [q.target.line for q in queries] == [4, 5]
    for q in queries:
        assert q.target.safety_text == "x >= 256 && x <= 65535"


def test_width_kill_symmetric():
    """uint16 -> uint8 gives the identical range (symmetric difference of
    the two type ranges does not depend on the direction)."""
    widened = parse_contract(apply_mutant(
        WIDTH_SRC, MutantSpec("width_change", 3, "uint8", "uint16")))
    up = gen_width_kill(widened, MutantSpec("width_change", 3, "uint8",
                                            "uint16"))
    down = gen_width_kill(widened, MutantSpec("width_change", 3, "uint16",
                                              "uint8"))
    assert [q.target.safety_text for q in up] \
        == [q.target.safety_text for q in down] \
        == ["x >= 256 && x <= 65535"] * 2


def test_width_equal_widths_rejected():
    with pytest.raises(MutationError):
        gen_width_kill(parse_contract(WIDTH_SRC),
                       MutantSpec("width_change", 3, "uint8", "uint8"))


def test_width_unused_variable_gives_empty_list():
    src = """contract U {
    uint256 g = 0;
    function f(uint8 unused) public {
        g = 1;
    }
}
"""
    spec = MutantSpec("width_change", 3, "uint8", "uint16")
    mutated = apply_mutant(src, spec)
    assert gen_width_kill(parse_contract(mutated), spec) == []


def test_width_kill_end_to_end():
    spec = MutantSpec("width_change", 3, "uint8", "uint16")
    outcomes = run_mutants(WIDTH_SRC, [spec])
    assert outcomes[0].status == "killed"
    assert outcomes[0].kill.weak
    args = outcomes[0].sequence.transactions[1].args
    assert 256 <= args[0] <= 65535


def test_reachability_only_mutant(corpus):
    spec = MutantSpec("selfdestruct_like", 6, "wins += 1;", "")
    query = gen_reachability_only(spec)
    assert query.target.safety is None
    result = synthesize(corpus["mutant_kill"], target=query.target)
    assert result.status == "found"


def test_reachability_unreachable_notfound(corpus):
    spec = MutantSpec("selfdestruct_like", 6, "hits = 1;", "")
    query = gen_reachability_only(spec)
    result = synthesize(corpus["contradiction"], target=query.target)
    assert result.status == "notfound"


def test_multi_tx_reachability_via_bids(engine_cache, corpus):
    spec = MutantSpec("selfdestruct_like", 14, "return maximum_bid;", "")
    query = gen_reachability_only(spec)
    result = synthesize(corpus["multi_tx"], target=query.target,
                        heuristic="state-var")
    assert result.status == "found"
    fns = [tx.function for tx in result.sequence]
    assert fns.count("bid") == 5


def test_unsupported_kinds_rejected():
    for kind in ("access_modifier", "tx_origin", "call_mechanism",
                 "line_swap"):
        with pytest.raises(MutationError) as err:
            load_mutant_specs(
                '[{"kind": "%s", "line": 1, "original": "a", "mutated": "b"}]'
                % kind)
        assert "synthesis" in str(err.value)


def test_apply_mutant_validates_line():
    with pytest.raises(MutationError):
        apply_mutant("contract C {}\n", MutantSpec("condition", 9, "x", "y"))
    with pytest.raises(MutationError):
        apply_mutant("contract C {}\n", MutantSpec("condition", 1, "zz", "y"))


def test_run_mutants_equivalent_reports_no_kill(corpus):
    specs = [MutantSpec("condition", 5, "a > b", "a > b")]
    outcomes = run_mutants(corpus["mutant_kill"], specs)
    assert outcomes[0].status == "no_kill_found"


def test_run_mutants_parses_the_original_once(corpus, monkeypatch):
    """One parse of the original, then one per mutant: the kill queries
    resolve in the original's AST and search its prepared program."""
    parses = []
    real = Parser.parse_contract

    def counting(self):
        parses.append(self)
        return real(self)
    monkeypatch.setattr(Parser, "parse_contract", counting)
    specs = [MutantSpec("condition", 5, "a > b", "a >= b"),
             MutantSpec("selfdestruct_like", 6, "wins += 1;", "")]
    outcomes = run_mutants(corpus["mutant_kill"], specs)
    assert [o.status for o in outcomes] == ["killed", "reached"]
    assert len(parses) == 1 + len(specs)
