import pytest

from minisol.concretize import Transaction, TransactionSequence
from minisol.engine import prepare
from minisol.errors import ReplayError
from minisol.frontend import extract_targets
from minisol.ir import CONSTRUCTOR
from minisol.oracle import replay

from ref_oracles import SearchBounds, exhaustive_search


def seq(*txs):
    return TransactionSequence(list(txs))


def deploy(caller="A0", args=(), value=0):
    return Transaction(CONSTRUCTOR, caller, list(args), value)


def test_guess_check_replay_hits(corpus):
    _ast, program, _g = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    report = replay(program, seq(deploy(),
                                 Transaction("guess", "A0", [10, 1]),
                                 Transaction("check", "A0", [])), target)
    assert report.target_hit and report.safety_value
    assert report.hit_at_tx == 2
    assert report.final_storage == {"dataStorage[10]": 1}


def test_guess_check_default_storage_misses(corpus):
    _ast, program, _g = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    report = replay(program, seq(deploy(), Transaction("check", "A0", [])),
                    target)
    assert not report.target_hit


def test_multi_tx_five_bids(corpus):
    _ast, program, _g = prepare(corpus["multi_tx"])
    target = extract_targets(corpus["multi_tx"])[0]
    bids = [Transaction("bid", "A0", [150]) for _ in range(5)]
    report = replay(program, seq(deploy(), *bids,
                                 Transaction("check", "A0", [])), target)
    assert report.target_hit and report.safety_value
    assert report.final_storage["maximum_bid"] == 150
    # four bids are one too few
    report = replay(program, seq(deploy(), *bids[:4],
                                 Transaction("check", "A0", [])), target)
    assert not report.target_hit


def test_safety_false_at_every_arrival_reports_hit_without_safety(corpus):
    _ast, program, _g = prepare(corpus["multi_tx"])
    target = extract_targets(corpus["multi_tx"])[0]
    bids = [Transaction("bid", "A0", [7]) for _ in range(5)]
    report = replay(program, seq(deploy(), *bids,
                                 Transaction("check", "A0", [])), target)
    assert report.target_hit and report.safety_value is False
    assert report.hit_at_tx == 6


def test_revert_atomicity():
    src = """contract R {
    uint256 g = 0;
    function f(uint256 v) public {
        g = v;
        require(v > 10);
    }
}
"""
    _ast, program, _g = prepare(src)
    report = replay(program, seq(deploy(),
                                 Transaction("f", "A0", [50]),
                                 Transaction("f", "A0", [3])), None)
    assert report.reverted == [False, False, True]
    # the reverting call's write is rolled back to the post-tx-1 state
    assert report.final_storage["g"] == 50


def test_division_by_zero_reverts():
    src = """contract D {
    uint256 g = 0;
    function f(uint256 v) public {
        g = 10 / v;
    }
}
"""
    _ast, program, _g = prepare(src)
    report = replay(program, seq(deploy(), Transaction("f", "A0", [0])), None)
    assert report.reverted == [False, True]
    report = replay(program, seq(deploy(), Transaction("f", "A0", [4])), None)
    assert report.reverted == [False, False]
    assert report.final_storage["g"] == 2


def test_array_bounds_revert():
    src = """contract A {
    uint256[3] slots;
    function put(uint256 i, uint256 v) public {
        slots[i] = v;
    }
}
"""
    _ast, program, _g = prepare(src)
    ok = replay(program, seq(deploy(), Transaction("put", "A0", [2, 9])), None)
    assert ok.reverted == [False, False]
    assert ok.final_storage["slots[2]"] == 9
    bad = replay(program, seq(deploy(), Transaction("put", "A0", [3, 9])),
                 None)
    assert bad.reverted == [False, True]


def test_replay_is_deterministic(corpus):
    _ast, program, _g = prepare(corpus["token"])
    s = seq(deploy(), Transaction("transfer", "A0", [1, 1000]),
            Transaction("jackpot", "A1", []))
    r1 = replay(program, s, None)
    r2 = replay(program, s, None)
    assert r1.final_storage == r2.final_storage
    assert r1.trace == r2.trace and r1.reverted == r2.reverted


def test_malformed_sequences_rejected(corpus):
    _ast, program, _g = prepare(corpus["guess_check"])
    with pytest.raises(ReplayError):
        replay(program, seq(Transaction("check", "A0", [])), None)
    with pytest.raises(ReplayError):
        replay(program, seq(deploy(), Transaction("nope", "A0", [])), None)
    with pytest.raises(ReplayError):
        replay(program, seq(deploy(), Transaction("guess", "A0", [1])), None)
    with pytest.raises(ReplayError):
        replay(program, seq(deploy(), deploy()), None)


def test_msg_value_and_sender(corpus):
    _ast, program, _g = prepare(corpus["distinct_callers"])
    target = extract_targets(corpus["distinct_callers"])[0]
    same = replay(program, seq(deploy("A3"), Transaction("sneak", "A3", [])),
                  target)
    assert not same.target_hit
    other = replay(program, seq(deploy("A3"), Transaction("sneak", "A4", [])),
                   target)
    assert other.target_hit


def test_exhaustive_search_finds_guess_check(corpus):
    _ast, program, _g = prepare(corpus["guess_check"])
    target = extract_targets(corpus["guess_check"])[0]
    bounds = SearchBounds(max_calls=2, arg_values=tuple(range(12)),
                          callers=("A0",))
    found = exhaustive_search(program, target, bounds)
    assert found is not None
    report = replay(program, found, target)
    assert report.target_hit and report.safety_value
    calls = [(tx.function, tuple(tx.args)) for tx in found]
    assert ("guess", (10, 1)) in calls


def test_exhaustive_search_contradiction(corpus):
    _ast, program, _g = prepare(corpus["contradiction"])
    target = extract_targets(corpus["contradiction"])[0]
    bounds = SearchBounds(max_calls=1, arg_values=(0, 5, 10, 11, 15))
    assert exhaustive_search(program, target, bounds) is None


def test_exhaustive_search_overflow_corners(corpus):
    """Corner sampling 0, 1, 255, 256, 65535 finds a wrapping pair."""
    _ast, program, _g = prepare(corpus["overflow"])
    target = extract_targets(corpus["overflow"])[0]
    bounds = SearchBounds(max_calls=2, arg_values=(0, 1, 255, 256, 65535),
                          callers=("A0",))
    found = exhaustive_search(program, target, bounds)
    assert found is not None
    report = replay(program, found, target)
    assert report.target_hit and report.safety_value


def test_trace_records_tx_and_line(corpus):
    _ast, program, _g = prepare(corpus["guess_check"])
    report = replay(program, seq(deploy(),
                                 Transaction("guess", "A0", [4, 4])), None)
    assert (1, 11) in report.trace
    assert all(t in (0, 1) for t, _l in report.trace)
