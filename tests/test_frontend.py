import pytest

from minisol.errors import ParseError, SemanticError, TargetError
from minisol.frontend import (LOOKAHEAD, Parser, extract_targets,
                              parse_contract, scope_at, tokenize)
from minisol.lang import BOOL, U16

from genprog import random_source
from ref_oracles import (ast_equal, reference_tokenize, statement_lines,
                         to_source)

LISTING_OVERFLOW = """contract Overflow {
    uint16 private sellerBalance = 0;

    function add(uint16 value) public {
        sellerBalance += value;
    }
}
"""


def test_parse_simple_overflow_contract():
    ast = parse_contract(LISTING_OVERFLOW)
    assert ast.name == "Overflow"
    assert len(ast.state_vars) == 1
    sv = ast.state_vars[0]
    assert (sv.name, sv.type_) == ("sellerBalance", U16)
    assert sv.init.value == 0
    assert [fn.name for fn in ast.functions] == ["add"]
    fn = ast.functions[0]
    assert fn.visibility == "public"
    assert fn.params == [("value", U16)]


def test_parse_empty_contract_synthesizes_constructor():
    ast = parse_contract("contract C {}")
    assert ast.state_vars == [] and ast.functions == []
    assert ast.constructor is not None
    assert ast.constructor.body == []


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_contract("contract {")
    assert err.value.line == 1


def test_duplicate_declarations_rejected():
    with pytest.raises(SemanticError):
        parse_contract("contract C { uint256 x; uint256 x; }")
    with pytest.raises(SemanticError):
        parse_contract(
            "contract C { function f() public {} function f() public {} }")
    with pytest.raises(SemanticError):
        parse_contract(
            "contract C { function f(uint256 a, uint8 a) public {} }")


@pytest.mark.parametrize("source", [
    "contract C { for (uint i = 0; i < 3; i += 1) {} }",
    "contract C { struct S { uint256 a; } }",
    "contract C { function f() public { x = 1; } modifier m() {} }",
    "contract C { function f() public { emit E(); } }",
    "contract C { uint8[3] xs; }",
    "contract C { function f() public { mapping(uint => uint) m; } }",
    "contract C { function f() public { a = b = 1; } }",
    "contract C { function f() public { { uint256 x = 1; } } }",
    "contract C { function f() public { selfdestruct(address(0)); } }",
    "contract C { function f() public returns (uint) { return -1; } }",
])
def test_rejection_is_total(source):
    with pytest.raises((ParseError, SemanticError)):
        parse_contract(source)


def test_extract_target_no_safety(corpus):
    specs = extract_targets(corpus["guess_check"])
    assert len(specs) == 1
    assert specs[0].line == 6 and specs[0].safety is None


def test_extract_target_with_safety(corpus):
    specs = extract_targets(corpus["multi_tx"])
    assert len(specs) == 1
    spec = specs[0]
    assert spec.line == 14
    assert spec.safety is not None and spec.safety.type_ is BOOL
    assert spec.safety_text == "maximum_bid > 100"


def test_extract_targets_none():
    assert extract_targets(LISTING_OVERFLOW) == []


def test_annotation_syntax_variants():
    src = ("contract C { uint256 x;\n"
           "    function f() public { x = 1; //@target\n"
           "    }\n}")
    assert [t.line for t in extract_targets(src)] == [2]
    src = src.replace("//@target", "//   @target   x == 0")
    spec = extract_targets(src)[0]
    assert spec.safety_text == "x == 0"


def test_target_on_non_statement_line_rejected():
    src = "contract C { uint256 x;\n    // @target\n}"
    with pytest.raises(TargetError):
        extract_targets(src)


def test_bad_safety_expression_reports_line():
    src = ("contract C { uint256 x;\n"
           "    function f() public { x = 1; // @target x >\n    }\n}")
    with pytest.raises(TargetError) as err:
        extract_targets(src)
    assert "line 2" in str(err.value)


def test_safety_unknown_identifier():
    src = ("contract C { uint256 x;\n"
           "    function f() public { x = 1; // @target nope > 2\n    }\n}")
    with pytest.raises(TargetError):
        extract_targets(src)


def test_safety_must_be_boolean():
    src = ("contract C { uint256 x;\n"
           "    function f() public { x = 1; // @target x + 2\n    }\n}")
    with pytest.raises(TargetError):
        extract_targets(src)


def test_safety_scope_excludes_later_locals():
    src = ("contract C { uint256 x;\n"
           "    function f() public {\n"
           "        x = 1; // @target y > 0\n"
           "        uint256 y = 2;\n"
           "    }\n}")
    with pytest.raises(TargetError):
        extract_targets(src)


def test_scope_innermost_shadowing_wins():
    src = ("contract C {\n"
           "    uint256 x = 1;\n"
           "    function f() public {\n"
           "        uint8 x = 2;\n"
           "        if (x < 3) {\n"
           "            uint16 x = 4;\n"
           "            x = 5;\n"
           "        }\n"
           "    }\n}")
    ast = parse_contract(src)
    _fn, visible = scope_at(ast, 7)
    slot, type_, kind = visible["x"]
    assert kind == "local" and type_ == U16 and slot == "x@2"


def test_line_preservation(corpus):
    ast = parse_contract(corpus["multi_tx"])
    fn = ast.function("bid")
    assert [s.line for s in fn.body] == [7, 8]
    check = ast.function("check")
    assert check.body[0].line == 13


def test_statement_lines_match_source(corpus):
    ast = parse_contract(corpus["two_tx_overflow"])
    assert statement_lines(ast) == {2, 3, 6, 7, 8, 9, 13, 14}


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random_programs(seed):
    source = random_source(seed)
    ast = parse_contract(source)
    printed = to_source(ast)
    reparsed = parse_contract(printed)
    assert ast_equal(ast, reparsed)


def test_round_trip_corpus(corpus):
    for name, source in corpus.items():
        ast = parse_contract(source)
        assert ast_equal(ast, parse_contract(to_source(ast))), name


def test_expression_lines_in_range(corpus):
    from minisol.lang import iter_exprs, iter_statements
    for source in corpus.values():
        ast = parse_contract(source)
        fns = ast.functions + [ast.constructor]
        for fn in fns:
            for stmt in iter_statements(fn.body):
                for e in iter_exprs(stmt):
                    assert 1 <= e.line <= ast.source_lines


def _stream(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def _assert_reference_tokens(source):
    """The single-pass lexer gives the former lexer's stream, then copies
    of its eof token enough for the parser's look-ahead."""
    ref = _stream(reference_tokenize(source))
    new = _stream(tokenize(source))
    assert new[:len(ref)] == ref
    assert new[len(ref) - 1:] == [ref[-1]] * (LOOKAHEAD + 1)


def test_lexer_matches_reference_on_corpus(corpus):
    for source in corpus.values():
        _assert_reference_tokens(source)


def test_lexer_matches_reference_on_generated_programs():
    for seed in range(200):
        _assert_reference_tokens(random_source(seed))


@pytest.mark.parametrize("source", [
    "", "\n", "x", "contract C {}", "a\tb\r\nc // end", "// only",
    "x\n\n  y", "uint8 a=>b+=c-=d==e!=f<=g>=h&&i||j", "7 007 0x1",
])
def test_lexer_matches_reference_on_edge_layouts(source):
    _assert_reference_tokens(source)


@pytest.mark.parametrize("source, line, col", [
    ("contract C {\n\t$ }", 2, 2),                    # after a tab
    ("contract C { // note\n  uint256 x; # }", 2, 14),  # after a comment
    ("contract C {\n  uint256 x;\n  x = 1 ^ 2;\n}", 3, 9),
    ("contract C {}@", 1, 14),                         # last character
    ("?", 1, 1),
])
def test_bad_character_position_matches_reference(source, line, col):
    with pytest.raises(ParseError) as ref:
        reference_tokenize(source)
    with pytest.raises(ParseError) as new:
        tokenize(source)
    assert str(new.value) == str(ref.value)
    assert (new.value.line, new.value.col) == (ref.value.line,
                                               ref.value.col) == (line, col)
    with pytest.raises(ParseError) as parsed:
        parse_contract(source)
    assert str(parsed.value) == str(ref.value)


@pytest.mark.parametrize("source", ["", "x", "f(\n"])
def test_peek_past_the_end_reads_eof(source):
    parser = Parser(tokenize(source))
    while parser.peek().kind != "eof":
        parser.next()
    end = parser.peek()
    assert parser.peek(1).kind == "eof"
    assert parser.next() is end and parser.peek(1).kind == "eof"
    assert parser.at("eof") and not parser.at("(")
