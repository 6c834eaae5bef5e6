import random

import pytest

from minisol.errors import LoweringError
from minisol.frontend import parse_contract
from minisol.ir import inline_internal_calls, lower
from minisol.lang import U16
from minisol.concretize import TransactionSequence
from minisol import oracle

from genprog import random_calls, random_source
from ref_oracles import AstInterpreter, dump_ir, statement_lines


def lower_src(source):
    return lower(parse_contract(source))


def test_compound_assignment_expands(corpus):
    program = lower_src(corpus["overflow"])
    add = program.function("add")
    instrs = list(add.instructions())
    assert [i.kind for i in instrs] == ["binary", "assign"]
    tmp, store = instrs
    assert tmp.op == "+" and tmp.dest.type_ == U16
    assert [a.type_ for a in tmp.args] == [U16, U16]
    assert tmp.args[0].kind == "state" and tmp.args[0].name == "sellerBalance"
    assert store.dest.kind == "state" and store.dest.name == "sellerBalance"
    assert store.args == (tmp.dest,)
    assert {tmp.line, store.line} == {5}


def test_initializers_lowered_into_constructor(corpus):
    program = lower_src(corpus["multi_tx"])
    instrs = list(program.constructor.instructions())
    assert [i.kind for i in instrs] == ["assign"] * 3
    assert [i.dest.name for i in instrs] == ["counter", "maximum_bid",
                                             "threshold"]
    assert [i.args[0].value for i in instrs] == [0, 0, 5]
    # initializer literals take the declared width
    overflow = lower_src(corpus["overflow"])
    init = next(overflow.constructor.instructions())
    assert init.dest.type_ == U16 and init.args[0].type_ == U16


def test_empty_function_body():
    program = lower_src("contract C { function f() public {} }")
    fn = program.function("f")
    assert list(fn.instructions()) == []
    assert fn.blocks[0].term.kind == "return"


def test_inline_matches_hand_inlined_source():
    called = """contract A {
    uint16 total = 0;
    function run(uint16 v) public {
        total = bump(v);
    }
    function bump(uint16 v) internal returns (uint16) {
        uint16 t = v + 1;
        return t;
    }
}
"""
    hand = """contract A {
    uint16 total = 0;
    function run(uint16 v) public {
        uint16 vv = v;
        uint16 t = vv + 1;
        uint16 ret = t;
        total = ret;
    }
}
"""
    auto = inline_internal_calls(lower_src(called))
    manual = inline_internal_calls(lower_src(hand))
    seq = TransactionSequence([tx for tx in random_calls(
        random.Random(3), parse_contract(called), 3)])
    ra = oracle.replay(auto, seq)
    rm = oracle.replay(manual, seq)
    assert ra.final_storage == rm.final_storage
    assert ra.reverted == rm.reverted
    # structural check: the call is gone and the callee body is spliced in
    run = auto.function("run")
    kinds = [i.kind for i in run.instructions()]
    assert "call" not in kinds
    assert any(i.op == "+" for i in run.instructions())
    assert any(a.name.endswith("$1") for i in run.instructions()
               for a in i.args if a.kind == "local")


def test_inline_identity_without_calls(corpus):
    program = lower_src(corpus["guess_check"])
    inlined = inline_internal_calls(program)
    assert dump_ir(program) == dump_ir(inlined)


def test_inline_keeps_a_call_free_function_and_leaves_the_lowered_alone(
        corpus):
    """A function with no call site is kept as lowered, not copied; one
    with a call is a copy with the callee spliced in, and inlining writes
    to no lowered function: the lowered program dumps the same after."""
    program = lower_src(corpus["internal_call"])
    before = dump_ir(program)
    inlined = inline_internal_calls(program)
    assert inlined.function("reset") is program.function("reset")
    assert inlined.constructor is program.constructor
    boost = inlined.function("boost")
    assert boost is not program.function("boost")
    assert "call" not in [i.kind for i in boost.instructions()]
    assert "call" in [i.kind for i in program.function("boost").instructions()]
    assert dump_ir(program) == before


def test_inline_recursion_detected():
    src = """contract R {
    function f() public { g(); }
    function g() internal { h(); }
    function h() internal { g(); }
}
"""
    with pytest.raises(LoweringError) as err:
        inline_internal_calls(lower_src(src))
    assert "g" in str(err.value) and "h" in str(err.value)


def test_call_to_undefined_function():
    with pytest.raises(Exception):
        lower_src("contract C { function f() public { nope(1); } }")


def test_public_only_after_inline(corpus):
    program = inline_internal_calls(lower_src(corpus["internal_call"]))
    assert all(fn.visibility == "public" for fn in program.functions)
    assert [fn.name for fn in program.functions] == ["boost", "reset"]


def test_line_coverage_matches_statements(corpus):
    for name, source in corpus.items():
        ast = parse_contract(source)
        program = lower(ast)
        ir_lines = {i.line for fn in program.all_functions()
                    for i in fn.instructions() if i.line is not None}
        assert ir_lines == statement_lines(ast), name


def test_dump_golden(corpus):
    text = dump_ir(inline_internal_calls(lower_src(corpus["overflow"])))
    assert text == (
        "function <constructor>()\n"
        "  b0:\n"
        "    2: sellerBalance = assign 0\n"
        "    -> return\n"
        "function add(value: uint16)\n"
        "  b0:\n"
        "    5: $t1 = + sellerBalance value\n"
        "    5: sellerBalance = assign $t1\n"
        "    -> return\n")


def test_dump_stable(corpus):
    program = inline_internal_calls(lower_src(corpus["token"]))
    assert dump_ir(program) == dump_ir(program)


@pytest.mark.parametrize("seed", range(40))
def test_semantic_preservation_ast_vs_ir(seed):
    """Interpreting the AST directly and interpreting the lowered IR give
    identical storage and revert behavior on random inputs."""
    rng = random.Random(1000 + seed)
    source = random_source(seed)
    ast = parse_contract(source)
    program = inline_internal_calls(lower(ast))
    for trial in range(3):
        txs = random_calls(rng, ast, rng.randint(1, 4))
        seq = TransactionSequence(list(txs))
        ir_report = oracle.replay(program, seq)
        ast_state, ast_reverted = AstInterpreter(ast).run(seq)
        assert ir_report.reverted == ast_reverted, source
        ir_storage = dict(ir_report.final_storage)
        ast_storage = dict(ast_state.storage)
        for name, table in ast_state.maps.items():
            for key, value in table.items():
                if value != 0:
                    ast_storage["%s[%d]" % (name, key)] = value
        assert ir_storage == ast_storage, source


@pytest.mark.parametrize("seed", range(12))
def test_temporaries_defined_before_use_on_every_path(seed):
    """Forward must-define dataflow: every local read is dominated by a
    write on every path from the function entry."""
    source = random_source(200 + seed)
    program = inline_internal_calls(lower(parse_contract(source)))
    for fn in program.all_functions():
        params = frozenset(n for n, _t in fn.params)
        all_names = params | {ins.dest.name for b in fn.blocks
                              for ins in b.instrs
                              if ins.dest is not None
                              and ins.dest.kind in ("local", "param")}
        preds = {b.idx: set() for b in fn.blocks}
        for block in fn.blocks:
            for t in block.term.targets:
                preds[t].add(block.idx)

        def block_out(block, in_set):
            out = set(in_set)
            for ins in block.instrs:
                if ins.dest is not None and ins.dest.kind in ("local",
                                                              "param"):
                    out.add(ins.dest.name)
            return out

        in_sets = {b.idx: set(all_names) for b in fn.blocks}
        in_sets[0] = set(params)
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                if block.idx == 0:
                    continue
                sources = [block_out(fn.blocks[p], in_sets[p])
                           for p in preds[block.idx]]
                avail = (set.intersection(*sources) if sources
                         else set(all_names))
                if avail != in_sets[block.idx]:
                    in_sets[block.idx] = avail
                    changed = True
        for block in fn.blocks:
            defined = set(in_sets[block.idx])
            for ins in block.instrs:
                for arg in ins.args:
                    if arg.kind in ("local", "param"):
                        assert arg.name in defined, (fn.name, block.idx,
                                                     arg.name)
                if ins.dest is not None and ins.dest.kind in ("local",
                                                              "param"):
                    defined.add(ins.dest.name)
