import json

import pytest

from minisol.concretize import (Transaction, TransactionSequence, from_json,
                                to_json, to_obj)
from minisol.encoder import ssa_number
from minisol.engine import prepare
from minisol.errors import EncodeError
from minisol import concretize as conc
from minisol import oracle


def test_guess_check_sequence_exact(engine_cache):
    result = engine_cache.run("guess_check")
    seq = result.sequence
    assert [(tx.function, tx.args) for tx in seq] == [
        ("<constructor>", []), ("guess", [10, 1]), ("check", [])]
    _ast, program, _g = engine_cache.prepared("guess_check")
    report = oracle.replay(program, seq, result.target)
    assert report.target_hit and report.safety_value


def test_constructor_only_sequence(engine_cache):
    result = engine_cache.run("ctor_target")
    assert len(result.sequence) == 1
    assert result.sequence.transactions[0].function == "<constructor>"


def test_distinct_callers(engine_cache):
    result = engine_cache.run("distinct_callers")
    seq = result.sequence
    assert len(seq) == 2
    assert seq.transactions[0].caller != seq.transactions[1].caller


def test_json_schema_field_order(engine_cache):
    result = engine_cache.run("guess_check")
    text = to_json(result.sequence)
    obj = json.loads(text)
    assert list(obj) == ["target", "heuristic", "walks_explored", "time_ms",
                         "transactions"]
    assert list(obj["target"]) == ["line", "safety"]
    for tx in obj["transactions"]:
        assert list(tx) == ["function", "caller", "args", "value", "gas"]
        assert isinstance(tx["value"], str) and isinstance(tx["gas"], str)
        assert all(isinstance(a, str) for a in tx["args"])


def test_json_round_trip_byte_identical(engine_cache):
    result = engine_cache.run("guess_check")
    text = to_json(result.sequence)
    assert to_json(from_json(text)) == text


def test_json_text_is_the_object_dumped(engine_cache):
    """``to_json`` is ``to_obj`` rendered: a reader of the object (the
    mutant report) sees what the JSON text holds, field order included."""
    for seq in (engine_cache.run("guess_check").sequence,
                engine_cache.run("ctor_target").sequence):
        obj = json.loads(to_json(seq))
        assert obj == to_obj(seq)
        assert list(obj) == list(to_obj(seq))


def test_big_integers_survive_as_decimal_strings():
    big = (1 << 256) - 1
    seq = TransactionSequence(
        [Transaction("<constructor>", "A0", []),
         Transaction("f", "A7", [big], value=big, gas=big)],
        target_line=3, safety_text=None, heuristic="floyd-warshall")
    text = to_json(seq)
    assert str(big) in text
    back = from_json(text)
    assert back.transactions[1].args == [big]
    assert back.transactions[1].value == big
    assert to_json(back) == text


def test_model_missing_symbol_raises(engine_cache):
    result = engine_cache.run("guess_check")
    _ast, program, _graph = engine_cache.prepared("guess_check")
    script = ssa_number(result.walk, program)

    class Empty:
        def __getitem__(self, key):
            raise KeyError(key)

    with pytest.raises(EncodeError):
        conc.concretize(Empty(), script)


def test_partial_walk_cannot_concretize(corpus):
    from minisol.explorer import Walk
    _ast, program, graph = prepare(corpus["guess_check"])
    cfg = graph.fn_cfgs["guess"]
    instr = [n.id for n in cfg.nodes if n.kind == "instr"][0]
    walk = Walk((instr, cfg.entry_id), graph=graph)
    with pytest.raises(EncodeError):
        conc.concretize({}, ssa_number(walk, program))
