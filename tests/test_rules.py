import json
import random
import time
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_minisol import _Gen

from arbmigrate import rules
from arbmigrate.minisol import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    CallExpr,
    ContractDef,
    ElementaryType,
    ForStmt,
    FunctionDef,
    Ident,
    IfStmt,
    IndexAccess,
    MemberAccess,
    MiniSolSyntaxError,
    Node,
    NumberLit,
    Param,
    RequireStmt,
    SourceUnit,
    StateVarDecl,
    TokenKind,
    VarDeclStmt,
    WhileStmt,
    annotate_bindings,
    children,
    parse_source,
    print_source,
    tokenize,
    walk,
)
from arbmigrate.rules import (
    _CMP_OPS,
    DEFAULT_CONFIG,
    RULES,
    Category,
    Finding,
    RuleConfig,
    Severity,
    _enclosing,
    _is_member,
    _state_var_type,
    _ties,
    analyze,
    findings_from_json,
    findings_to_doc,
    findings_to_json,
    get_rule,
    migration_checklist,
    render_checklist,
    rule_catalog,
)

CORPUS = Path(__file__).parent / "corpus"
README = Path(__file__).parents[1] / "README.md"


def analyze_text(source, config=None, path="snippet.sol"):
    return analyze(parse_source(source, path=path), config)


def wrap(body, prelude=""):
    return f"contract C {{ {prelude} function f() public {{ {body} }} }}"


class TestCatalog:
    def test_ids_unique_and_complete(self):
        ids = [r.id for r in rule_catalog()]
        assert len(ids) == len(set(ids)) == 7

    def test_every_rule_maps_to_one_category(self):
        for rule in rule_catalog():
            assert isinstance(rule.category, Category)
            assert isinstance(rule.severity, Severity)

    def test_seq_remediation_names_the_uptime_feed(self):
        assert "Sequencer Uptime Feed" in get_rule("ARB-SEQ-001").remediation

    def test_time_002_remediation_warns_against_hardcoding(self):
        assert "hardcode block numbers" in get_rule("ARB-TIME-002").remediation

    def test_dos_remediations(self):
        assert "size of arrays" in get_rule("ARB-DOS-001").remediation
        assert "minimum deposit" in get_rule("ARB-DOS-002").remediation

    def test_severity_mapping(self):
        severities = {r.id: r.severity for r in rule_catalog()}
        assert severities["ARB-SEQ-001"] is Severity.HIGH
        assert severities["ARB-TIME-001"] is Severity.HIGH
        assert severities["ARB-ALIAS-001"] is Severity.HIGH
        assert severities["ARB-DOS-001"] is Severity.HIGH
        assert severities["ARB-TIME-002"] is Severity.MEDIUM
        assert severities["ARB-TIME-003"] is Severity.MEDIUM
        assert severities["ARB-DOS-002"] is Severity.INFO

    def test_readme_rule_table_matches_catalog(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if "| severity |" in line)
        rows = []
        for line in lines[header + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")][:3])
        assert rows == [[r.id, r.severity.value, r.category.value] for r in RULES]


class TestSeqRule:
    def test_oracle_read_without_uptime_check_fires(self):
        findings = analyze_text(wrap("uint256 p = feed.latestRoundData();"))
        assert [f.rule_id for f in findings] == ["ARB-SEQ-001"]

    def test_uptime_check_before_read_suppresses(self):
        findings = analyze_text(
            wrap("require(checkSequencerUp()); uint256 p = feed.latestRoundData();")
        )
        assert findings == []

    def test_uptime_check_after_read_still_fires(self):
        findings = analyze_text(
            wrap("uint256 p = feed.latestRoundData(); require(checkSequencerUp());")
        )
        assert [f.rule_id for f in findings] == ["ARB-SEQ-001"]

    def test_every_read_before_the_first_check_fires(self):
        findings = analyze_text(wrap(
            "uint256 p = getPrice(1); uint256 q = getPrice(2);"
            " require(checkSequencerUp()); uint256 r = getPrice(3);"
        ))
        assert [f.excerpt for f in findings] == ["getPrice(1)", "getPrice(2)"]

    def test_uptime_check_in_same_statement_does_not_protect(self):
        findings = analyze_text(
            wrap("require(checkSequencerUp() && feed.getPrice() > 0);")
        )
        assert [f.rule_id for f in findings] == ["ARB-SEQ-001"]

    def test_check_in_other_function_does_not_protect(self):
        source = (
            "contract C {"
            " function guard() public { require(checkSequencerUp()); }"
            " function f() public { uint256 p = getPrice(1); }"
            " }"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-SEQ-001"]

    def test_custom_patterns(self):
        config = RuleConfig(oracle_patterns=("readSpot",), uptime_patterns=("heartbeat",))
        findings = analyze_text(wrap("uint256 p = amm.readSpot();"), config)
        assert [f.rule_id for f in findings] == ["ARB-SEQ-001"]
        findings = analyze_text(
            wrap("heartbeat(); uint256 p = amm.readSpot();"), config
        )
        assert findings == []

    @pytest.mark.parametrize("body, reads", [
        # a callee chain holds no index expression nor argument: only the inner call reads
        ("feeds[getPrice()].latest();", [(43, "getPrice()")]),
        ("wrap(getPrice()).latest();", [(42, "getPrice()")]),
        # a call on a read's result is part of that read, reported once at the inner call
        ("feed.getPrice().latest();", [(37, "feed.getPrice()")]),
        ("getPrice()(1);", [(37, "getPrice()")]),
        ("getPrice().latestRoundData();", [(37, "getPrice()")]),
        ("a.getPrice().b().c();", [(37, "a.getPrice()")]),
        # a call on an uptime check's result is an uptime check, and it comes first
        ("require(sequencerUptimeFeed().latestRoundData() > 0); uint256 p = getPrice(1);", []),
        ("feed.getPrice;", []),  # names the oracle but makes no call
    ])
    def test_only_the_calls_whose_callee_chain_names_the_oracle_read(self, body, reads):
        findings = analyze_text(wrap(body))
        assert [(f.rule_id, f.column, f.excerpt) for f in findings] == [
            ("ARB-SEQ-001", column, excerpt) for column, excerpt in reads
        ]


class TestTimeRules:
    def test_equality_with_block_number_fires_high(self):
        findings = analyze_text(wrap("if (block.number == 17000000) { pause(); }"))
        assert [f.rule_id for f in findings] == ["ARB-TIME-001"]
        assert get_rule(findings[0].rule_id).severity is Severity.HIGH

    @pytest.mark.parametrize("condition", ["(block.number) == 17000000", "block.number == (17000000)"])
    def test_parenthesized_operand_is_reported_with_its_parentheses(self, condition):
        source = (
            "contract C {\n    function f() public {\n"
            f"        if ({condition}) {{\n            pause();\n        }}\n    }}\n}}\n"
        )
        [finding] = analyze_text(source)
        assert (finding.rule_id, finding.line, finding.column) == ("ARB-TIME-001", 3, 13)
        assert finding.excerpt == condition  # the whole comparison, parentheses balanced

    def test_inequality_also_fires(self):
        assert [f.rule_id for f in analyze_text(wrap("bool b = block.number != 5;"))] == [
            "ARB-TIME-001"
        ]

    def test_range_comparison_does_not_fire_time_001(self):
        findings = analyze_text(wrap("if (block.number >= start) { pause(); }"))
        assert findings == []

    def test_hardcoded_height_via_initializer(self):
        source = (
            "contract C { uint256 public launchBlock = 18000000;"
            " function live() public view returns (bool)"
            " { return block.number >= launchBlock; } }"
        )
        findings = analyze_text(source)
        assert [f.rule_id for f in findings] == ["ARB-TIME-002"]
        assert findings[0].line == 1

    def test_small_literal_not_flagged(self):
        source = (
            "contract C { uint256 public launchBlock = 5000;"
            " function live() public view returns (bool)"
            " { return block.number >= launchBlock; } }"
        )
        assert analyze_text(source) == []

    @pytest.mark.parametrize("literal, fires", [(999_999, False), (1_000_000, True)])
    def test_block_number_floor_is_inclusive(self, literal, fires):
        # the README's table: a literal of at least block_number_literal_min
        source = (
            f"contract C {{ uint256 public launchBlock = {literal};"
            " function live() public view returns (bool)"
            " { return block.number >= launchBlock; } }"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-TIME-002"] * fires

    def test_big_literal_on_unlinked_variable_not_flagged(self):
        source = (
            "contract C { uint256 public cap = 21000000;"
            " function ok(uint256 x) public view returns (bool) { return x <= cap; } }"
        )
        assert analyze_text(source) == []

    def test_same_local_name_in_another_function_not_tied(self):
        source = (
            "contract C { function f() public { uint256 mark = block.number; }"
            " function g() public { uint256 mark = 5000000; } }"
        )
        assert analyze_text(source) == []

    def test_undeclared_name_ties_nothing(self):
        assert analyze_text(wrap("if (block.number > start) { start = 5000000; }")) == []

    def test_timestamp_short_interval_fires(self):
        findings = analyze_text(wrap("require(block.timestamp - last >= 30);"))
        assert [f.rule_id for f in findings] == ["ARB-TIME-003"]

    def test_timestamp_long_interval_silent(self):
        assert analyze_text(wrap("require(block.timestamp - last >= 3600);")) == []

    def test_timestamp_threshold_configurable(self):
        config = RuleConfig(timestamp_threshold_s=10)
        assert analyze_text(wrap("require(block.timestamp - last >= 30);"), config) == []

    def test_timestamp_modulo_fires_once(self):
        findings = analyze_text(wrap("if (block.timestamp % 15 == 0) { spin(); }"))
        assert [f.rule_id for f in findings] == ["ARB-TIME-003"]


class TestAliasRule:
    def test_sender_vs_state_address_fires(self):
        source = (
            "contract C { address public owner;"
            " function f() public { require(msg.sender == owner); } }"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-ALIAS-001"]

    def test_sender_vs_address_literal_fires(self):
        findings = analyze_text(
            wrap("require(msg.sender == 0x00000000000000000000000000000000deadbeef);")
        )
        assert [f.rule_id for f in findings] == ["ARB-ALIAS-001"]

    def test_alias_helper_call_anywhere_suppresses_file(self):
        source = (
            "contract C { address public owner; address public aliased;"
            " function sync() public { aliased = applyL1ToL2Alias(owner); }"
            " function f() public { require(msg.sender == owner); } }"
        )
        assert analyze_text(source) == []

    def test_alias_helper_in_another_contract_does_not_mask(self):
        dirty = (CORPUS / "alias_permission_dirty.sol").read_text()
        clean = (CORPUS / "alias_permission_clean.sol").read_text()
        findings = [(f.rule_id, f.line) for f in analyze_text(dirty + clean)]
        assert findings == [("ARB-ALIAS-001", 5), ("ARB-ALIAS-001", 10)]

    def test_sender_vs_non_address_variable_silent(self):
        source = (
            "contract C { uint256 public owner;"
            " function f() public { require(msg.sender == owner); } }"
        )
        assert analyze_text(source) == []

    def test_sender_vs_local_silent(self):
        findings = analyze_text(wrap("address probe = caller(); require(msg.sender == probe);"))
        assert findings == []


class TestDosRules:
    def test_dynamic_array_loop_with_transfer_fires(self):
        source = (
            "contract C { address[] public xs;"
            " function f() public {"
            " for (uint256 i = 0; i < xs.length; i++) { payable(xs[i]).transfer(1); } } }"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-DOS-001"]

    def test_fixed_array_loop_silent(self):
        source = (
            "contract C { address[5] public xs;"
            " function f() public {"
            " for (uint256 i = 0; i < xs.length; i++) { payable(xs[i]).transfer(1); } } }"
        )
        assert analyze_text(source) == []

    def test_loop_without_external_call_silent(self):
        source = (
            "contract C { uint256[] public xs; uint256 public acc;"
            " function f() public {"
            " for (uint256 i = 0; i < xs.length; i++) { acc += xs[i]; } } }"
        )
        assert analyze_text(source) == []

    def test_while_loop_with_send_fires(self):
        source = (
            "contract C { address[] public xs;"
            " function f() public { uint256 i = 0;"
            " while (i < xs.length) { xs[i].send(1); i++; } } }"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-DOS-001"]

    def test_payable_deposit_without_minimum_fires_info(self):
        source = "contract C { function deposit() public payable { credit(msg.sender); } }"
        findings = analyze_text(source)
        assert [f.rule_id for f in findings] == ["ARB-DOS-002"]
        assert get_rule(findings[0].rule_id).severity is Severity.INFO

    def test_minimum_amount_require_suppresses(self):
        source = (
            "contract C { function deposit() public payable"
            " { require(msg.value >= 100); credit(msg.sender); } }"
        )
        assert analyze_text(source) == []

    def test_non_payable_deposit_silent(self):
        source = "contract C { function deposit() public { credit(msg.sender); } }"
        assert analyze_text(source) == []

    @pytest.mark.parametrize("body, fires", [
        # the call at any depth of any body statement, the length at any depth of the condition
        ("for (uint256 i = 0; i < xs.length; i++) { acc += 1; if (ok) { xs[i].call(1); } }", True),
        ("uint256 i = 0; while (ok && i < xs.length) { i++; xs[i].send(1); }", True),
        ("for (;;) { xs[0].transfer(1); }", False),  # no condition bounds the loop
        ("for (uint256 i = 0; i < xs.length; xs[i].transfer(1)) { acc += 1; }", False),  # not body
    ])
    def test_loop_reads_its_condition_and_body_at_any_depth(self, body, fires):
        source = (
            "contract C { address[] public xs; uint256 public acc;"
            f" function f(bool ok) public {{ {body} }} }}"
        )
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-DOS-001"] * fires

    @pytest.mark.parametrize("condition, protects", [
        ("ok && msg.value > 0", True),  # an order comparison at any depth of the condition
        ("msg.value + 1 >= 100", True),
        ("msg.value == 100", False),  # not an order comparison
        ("ok", False),
    ])
    def test_minimum_amount_check_at_any_depth_of_a_require(self, condition, protects):
        source = f"contract C {{ function deposit(bool ok) public payable {{ require({condition}); }} }}"
        assert [f.rule_id for f in analyze_text(source)] == ["ARB-DOS-002"] * (not protects)


class TestAnalyzeContract:
    def test_empty_contract_no_findings(self):
        assert analyze_text("contract Empty { }") == []

    def test_findings_sorted_and_deterministic(self):
        unit = parse_source((CORPUS / "dos_loop_dirty.sol").read_text(), path="dos_loop_dirty.sol")
        first = analyze(unit)
        second = analyze(unit)
        assert first == second
        assert [f.sort_key() for f in first] == sorted(f.sort_key() for f in first)

    def test_disabling_one_rule_removes_exactly_its_findings(self):
        source = (CORPUS / "time_equality_dirty.sol").read_text()
        unit = parse_source(source, path="x.sol")
        full = analyze(unit)
        without = analyze(unit, RuleConfig().with_enabled(
            [r.id for r in rule_catalog() if r.id != "ARB-TIME-001"]
        ))
        assert without == [f for f in full if f.rule_id != "ARB-TIME-001"]

    def test_rule_independence_across_whole_corpus(self):
        for dropped in [r.id for r in rule_catalog()]:
            config = RuleConfig().with_enabled(
                [r.id for r in rule_catalog() if r.id != dropped]
            )
            for path in sorted(CORPUS.glob("*dirty.sol")):
                unit = parse_source(path.read_text(), path=path.name)
                full = analyze(unit)
                subset = analyze(unit, config)
                assert subset == [f for f in full if f.rule_id != dropped]

    @pytest.mark.parametrize("width", [120, 121])
    def test_an_excerpt_keeps_at_most_120_characters(self, width):
        call = "getPrice(" + "a" * (width - 10) + ")"
        [finding] = analyze_text(wrap(f"uint256 p = {call};"))
        assert len(call) == width
        assert finding.excerpt == (call if width == 120 else call[:117] + "...")

    def test_editing_one_function_only_moves_its_findings(self):
        base = (
            "contract C { address[] public xs;\n"
            " function a() public { uint256 p = getPrice(1); }\n"
            " function b() public { if (block.number == 17000000) { spin(); } }\n}"
        )
        edited = base.replace("getPrice(1)", "getPrice(2)")
        before = analyze_text(base)
        after = analyze_text(edited)
        assert [f.rule_id for f in before] == [f.rule_id for f in after]
        assert [f.line for f in before] == [f.line for f in after]


# Left-nested 4,000-term chains, in a payable deposit function of a contract
# with a state variable x, and the findings each gives, as
# Counter((rule_id, line, column)).
_CHAIN_TERMS = 4000
_LONG_CHAINS = {
    "timestamp": {("ARB-DOS-002", 3, 5): 1, ("ARB-TIME-003", 4, 21): _CHAIN_TERMS - 1},
    "number": {("ARB-DOS-002", 3, 5): 1, ("ARB-TIME-001", 4, 17): 1, ("ARB-TIME-002", 4, 20031): 1},
    "value": {},
    "callee": {("ARB-DOS-002", 3, 5): 1, ("ARB-SEQ-001", 4, 9): 1},
    "index": {("ARB-DOS-002", 3, 5): 1, ("ARB-SEQ-001", 4, 9): 1},
}


def _chain_source(name, terms):
    """The _LONG_CHAINS shape name, terms terms long, in its contract."""
    body = {
        "timestamp": "uint256 y = block.timestamp" + " + 1" * (terms - 1) + ";",
        "number": "require(block.number" + " == x" * (terms - 1) + "); x = 20000000;",
        "value": "require(msg.value" + " < 1" * (terms - 1) + ");",
        "callee": "x" + ".g()" * (terms - 2) + ".getPrice();",
        "index": "x" + "[0]" * (terms - 2) + ".getPrice();",
    }[name]
    return ("contract C {\n    uint256 x;\n    function deposit() public payable {\n"
            f"        {body}\n    }}\n}}\n")


class TestLongChains:
    """Each detector question marks a node at most once, so a chain whose
    every link asks about the links below it stays linear."""

    @pytest.mark.parametrize("name", sorted(_LONG_CHAINS))
    def test_chain_analyzes_fast_with_unchanged_findings(self, name):
        unit = parse_source(_chain_source(name, _CHAIN_TERMS))
        start = time.perf_counter()
        findings = analyze(unit)
        elapsed = time.perf_counter() - start
        assert Counter((f.rule_id, f.line, f.column) for f in findings) == _LONG_CHAINS[name]
        assert elapsed < 1.0, f"{name}: analyze took {elapsed:.2f} s"


CORPUS_NAMES = sorted(p.name for p in CORPUS.glob("*.sol"))
# names a rule reads: config patterns, builtins and the members it matches
# on them, and the "deposit" that ARB-DOS-002 looks for in function names
_RULE_NAMES = {
    name.lower()
    for names in (DEFAULT_CONFIG.oracle_patterns, DEFAULT_CONFIG.uptime_patterns,
                  DEFAULT_CONFIG.alias_patterns, DEFAULT_CONFIG.loop_call_triggers)
    for name in names
} | {"msg", "block", "sender", "value", "number", "timestamp", "length"}


def _corpus_text(names):
    return "".join((CORPUS / name).read_text() for name in names)


def _rename(source, mapping):
    """source with each identifier token in mapping replaced by its new name."""
    out, pos, tokens = [], 0, tokenize(source)
    for kind, text, start, end in zip(tokens.kinds, tokens.texts, tokens.starts, tokens.ends):
        if kind is TokenKind.IDENTIFIER and text in mapping:
            out += [source[pos:start], mapping[text]]
            pos = end
    return "".join(out) + source[pos:]


def _identifiers(source):
    tokens = tokenize(source)
    return [text for kind, text in zip(tokens.kinds, tokens.texts) if kind is TokenKind.IDENTIFIER]


def _suffix_contracts(source, suffix):
    names = {c.name for c in parse_source(source).contracts}
    return _rename(source, {name: f"{name}{suffix}" for name in names})


def _variables(source):
    return sorted({
        node.name for node in walk(parse_source(source))
        if isinstance(node, (StateVarDecl, VarDeclStmt, Param))
    })


def _with_scope_probe(source, var, literal):
    """source with a new last function that declares a local named var."""
    end = source.rstrip().rindex("}")  # the closing brace of the last contract
    probe = f"    function scopeProbe() public {{ uint256 {var} = {literal}; }}\n"
    return source[:end] + probe + source[end:]


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.sampled_from(CORPUS_NAMES), min_size=1, max_size=3, unique=True),
           b=st.lists(st.sampled_from(CORPUS_NAMES), min_size=1, max_size=3, unique=True))
    @example(a=["alias_permission_dirty.sol"], b=["alias_permission_clean.sol"])
    def test_concatenation_adds_findings(self, a, b):
        # with distinct contract names, a + b finds what a and b find apart
        text_a = _suffix_contracts(_corpus_text(a), "A")
        text_b = _suffix_contracts(_corpus_text(b), "B")
        shift = text_a.count("\n")
        shifted_b = [f._replace(line=f.line + shift) for f in analyze_text(text_b)]
        assert analyze_text(text_a + text_b) == analyze_text(text_a) + shifted_b

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(CORPUS_NAMES), pick=st.integers(0, 99),
           literal=st.integers(DEFAULT_CONFIG.block_number_literal_min, 2**256 - 1))
    @example(name="time_hardcode_dirty.sol", pick=0, literal=5_000_000)  # local endBlock
    def test_local_with_a_variable_name_in_a_new_function_adds_nothing(self, name, pick, literal):
        source = (CORPUS / name).read_text()
        variables = _variables(source)
        var = variables[pick % len(variables)]
        assert analyze_text(_with_scope_probe(source, var, literal)) == analyze_text(source)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(CORPUS_NAMES), data=st.data())
    def test_renaming_names_no_rule_reads_keeps_rule_ids(self, name, data):
        source = (CORPUS / name).read_text()
        names = sorted({
            text for text in _identifiers(source)
            if text.lower() not in _RULE_NAMES and "deposit" not in text.lower()
        })
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
        renamed = _rename(source, {old: f"renamed{i}" for i, old in enumerate(chosen)})

        def summary(text):
            return [(f.rule_id, f.line) for f in analyze_text(text)]

        assert summary(renamed) == summary(source)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(CORPUS_NAMES), data=st.data())
    def test_whitespace_and_comments_between_tokens_keep_rule_counts(self, name, data):
        # a comment filler starts with a space so that it cannot glue onto a '/' or '*' token
        source = (CORPUS / name).read_text()
        tokens = tokenize(source)
        fillers = st.sampled_from([" ", "\t", "\n", "\r\n  ", " // note\n", " /* c */", " /* a\nb */"])
        inserts = dict(data.draw(st.lists(
            st.tuples(st.integers(0, len(tokens)), st.lists(fillers, min_size=1, max_size=3)),
            min_size=1, max_size=40,
        )))
        out, pos = [], 0
        for index, start in enumerate(tokens.starts):
            if index in inserts:  # before the token, after the text that already separates it
                out += [source[pos:start], *inserts[index]]
                pos = start
        padded = "".join(out) + source[pos:] + "".join(inserts.get(len(tokens), ()))
        assert tokenize(padded).texts == tokens.texts
        assert Counter(f.rule_id for f in analyze_text(padded)) == Counter(
            f.rule_id for f in analyze_text(source)
        )


# --- the binder and the rule index as two passes --------------------------------

# parser.annotate_bindings as it was before it filed the rule index: a
# recursive binder that only sets Ident.decl.
def _reference_annotate_bindings(unit):
    contracts = {c.name: c for c in unit.contracts}
    for contract in unit.contracts:
        members = {**contracts, **{f.name: f for f in contract.functions},
                   **{v.name: v for v in contract.state_vars}}

        def resolve(expr, scope):
            for node in walk(expr):
                if isinstance(node, Ident):
                    node.decl = scope.get(node.name) or members.get(node.name)

        def resolve_stmts(stmts, scope):
            for stmt in stmts:
                resolve_stmt(stmt, scope)

        def resolve_stmt(stmt, scope):
            if stmt is None:
                return
            if isinstance(stmt, IfStmt):
                resolve(stmt.condition, scope)
                resolve_stmts(stmt.then_body, dict(scope))
                if stmt.else_body is not None:
                    resolve_stmts(stmt.else_body, dict(scope))
            elif isinstance(stmt, ForStmt):
                inner = dict(scope)
                resolve_stmt(stmt.init, inner)
                if stmt.condition is not None:
                    resolve(stmt.condition, inner)
                resolve_stmt(stmt.post, inner)
                resolve_stmts(stmt.body, dict(inner))
            elif isinstance(stmt, WhileStmt):
                resolve(stmt.condition, scope)
                resolve_stmts(stmt.body, dict(scope))
            else:  # a simple statement: resolve its expressions, then declare
                for expr in children(stmt):
                    resolve(expr, scope)
                if isinstance(stmt, VarDeclStmt):
                    scope[stmt.name] = stmt

        for var in contract.state_vars:
            if var.initializer is not None:
                resolve(var.initializer, {})
        for fn in contract.functions:
            resolve_stmts(fn.body, {p.name: p for p in fn.params})


# rules._index, the second full-tree pass that filed every node by type.
def _reference_index(unit):
    index = {}
    stack = [(unit, None, None, -1)]
    while stack:
        node, contract, function, top = site = stack.pop()
        index.setdefault(type(node), []).append(site)
        kids = children(node)
        if isinstance(node, FunctionDef):
            stack.extend((kid, contract, node, i) for i, kid in reversed(list(enumerate(kids))))
            continue
        if isinstance(node, ContractDef):
            contract = node
        stack.extend((kid, contract, function, top) for kid in reversed(kids))
    return index


def _bucket_ids(index):
    """Each nonempty bucket of unit.index, as the ids of its nodes in order."""
    return {cls: [id(node) for node in nodes] for cls, nodes in index.items() if nodes}


@st.composite
def _binder_sources(draw):
    """A generated program, or a corpus file as is or under a metamorphic mutation."""
    kind = draw(st.sampled_from(["generated", "corpus", "concatenated", "probed", "renamed"]))
    if kind == "generated":
        return print_source(_Gen(draw(st.integers(0, 10**6))).unit())
    source = (CORPUS / draw(st.sampled_from(CORPUS_NAMES))).read_text()
    if kind == "concatenated":
        other = (CORPUS / draw(st.sampled_from(CORPUS_NAMES))).read_text()
        return _suffix_contracts(source, "A") + _suffix_contracts(other, "B")
    if kind == "probed":
        return _with_scope_probe(source, draw(st.sampled_from(_variables(source))), 5_000_000)
    if kind == "renamed":  # may rename one declaration onto another, which can shadow it
        names = sorted(set(_identifiers(source)))
        chosen = draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=4))
        return _rename(source, {old: draw(st.sampled_from(names)) for old in chosen})
    return source


def _rebuild(value):
    """A copy of value made with the node constructors: same fields and spans, never bound."""
    if isinstance(value, list):
        return [_rebuild(item) for item in value]
    if not isinstance(value, Node):
        return value
    return type(value)(*(_rebuild(getattr(value, f)) for f in value._fields), span=value.span)


class TestOnePassIndex:
    @settings(max_examples=200, deadline=None)
    @given(source=_binder_sources())
    @example(source=(CORPUS / "time_hardcode_dirty.sol").read_text())
    def test_one_pass_matches_the_binder_then_the_index(self, source):
        try:
            unit = parse_source(source)
        except MiniSolSyntaxError:  # a renaming that declares a name twice in one scope
            assume(False)
        idents = [node for node in walk(unit) if isinstance(node, Ident)]
        decls = [ident.decl for ident in idents]
        buckets = _bucket_ids(unit.index)
        _reference_annotate_bindings(unit)
        assert [id(ident.decl) for ident in idents] == [id(decl) for decl in decls]
        reference = _reference_index(unit)
        assert {cls: [id(site[0]) for site in sites] for cls, sites in reference.items()} == buckets
        # the parent links place each node as its site did
        for node, contract, function, top in (site for sites in reference.values() for site in sites):
            assert _enclosing(node, ContractDef)[0] is contract
            holder, below = _enclosing(node, FunctionDef)
            assert holder is function
            assert top == -1 if function is None else children(function)[top] is below

    def test_analyze_binds_a_unit_built_by_hand_like_its_parsed_twin(self):
        for name in CORPUS_NAMES:
            parsed = parse_source((CORPUS / name).read_text(), path=name)
            built = _rebuild(parsed)
            assert built.index is None
            assert analyze(built) == analyze(parsed), name
            assert _bucket_ids(built.index).keys() == _bucket_ids(parsed.index).keys()
        # spans and source text only place a finding; an all-default unit is found too
        owner = StateVarDecl(ElementaryType("address"), None, "owner")
        check = RequireStmt(BinaryExpr("==", MemberAccess(Ident("msg"), "sender"), Ident("owner")))
        unit = SourceUnit([ContractDef("C", [owner, FunctionDef("f", body=[check])])])
        [finding] = analyze(unit)
        # a node built by hand keeps EMPTY_SPAN: no place in the source, so 0:0
        assert (finding.rule_id, finding.line, finding.column, finding.excerpt) == (
            "ARB-ALIAS-001", 0, 0, "")
        assert check.condition.right.decl is owner

    def test_analyze_binds_a_unit_built_by_hand_at_any_depth(self):
        # 1,000 nested ifs: deeper than the parser accepts and than Python's recursion limit
        total = StateVarDecl(ElementaryType("uint256"), None, "total")
        cap = Param(ElementaryType("uint256"), "cap")
        check = RequireStmt(BinaryExpr("==", MemberAccess(Ident("block"), "number"), NumberLit(17000000)))
        store = AssignStmt(Ident("total"), "=", Ident("cap"))
        body = [check, store]
        for _ in range(1_000):
            body = [IfStmt(Ident("cap"), body)]
        unit = SourceUnit([ContractDef("C", [total, FunctionDef("f", [cap], body=body)])])
        [finding] = analyze(unit)
        assert finding.rule_id == "ARB-TIME-001" and len(unit.index[IfStmt]) == 1_000
        assert store.target.decl is total and store.value.decl is cap
        assert check.condition.left.obj.decl is None
        holders = []  # the 1,000 ifs, the function, the contract and the unit
        node = store
        while (node := node.parent) is not None:
            holders.append(node)
        assert len(holders) == 1_003 and holders[999] is body[0] and holders[-1] is unit

    def test_index_is_not_a_field(self):
        parsed = parse_source((CORPUS / "alias_permission_dirty.sol").read_text(), path="a.sol")
        built = _rebuild(parsed)
        assert parsed.index and built.index is None
        assert parsed == built and repr(parsed) == repr(built)
        assert "index" not in SourceUnit._fields and "index" not in repr(parsed)
        assert children(parsed) == parsed.contracts
        # parent links: each node's parent holds it; never a field, and unbound nodes read None
        for name in CORPUS_NAMES:
            unit = parse_source((CORPUS / name).read_text())
            assert unit.parent is None
            for node in walk(unit):
                assert node is unit or any(kid is node for kid in children(node.parent)), node
        assert all(node.parent is None for node in walk(built))
        assert not any("parent" in cls._fields for cls in Node.__subclasses__())
        assert "parent" not in repr(parsed)
        # a statement moved into another function and bound again has the new holder
        set_owner, stop = parsed.contracts[0].functions
        moved = set_owner.body.pop()
        stop.body.append(moved)
        annotate_bindings(parsed)
        assert moved.parent is stop and moved.target.parent is moved


# --- the detectors as subtree searches ------------------------------------------

# The detector queries of rules.py before the binder set parent links: memoised
# searches down each subtree a detector asked about, and walks of each loop and
# require condition.  ARB-TIME-001 asked about no subtree, so analyze keeps its own.
def _contains_member(node, obj_name, member, seen):
    """Whether node's subtree holds obj_name.member; seen keeps each answer by node id."""
    path = []  # (node, iterator over its children) for each open node
    while True:
        if not node._child_fields:
            hit = False
        elif (hit := seen.get(id(node))) is None:
            hit = _is_member(node, obj_name, member)
            if not hit:
                path.append((node, iter(children(node))))
        if hit:
            seen[id(node)] = True
            seen.update((id(opened), True) for opened, _ in path)
            return True
        while path:
            node = next(path[-1][1], None)
            if node is not None:
                break
            seen[id(path.pop()[0])] = False
        else:
            return False


def _call_matches(call, lowered, seen):
    """Whether a name on call's callee chain is in lowered; seen keeps each link's answer."""
    path = []
    node = call.callee
    while (hit := seen.get(id(node))) is None:
        path.append(id(node))
        cls = node.__class__
        if cls is MemberAccess:
            if node.member.lower() in lowered:
                hit = True
                break
            node = node.obj
        elif cls is IndexAccess:
            node = node.obj
        elif cls is CallExpr:
            node = node.callee
        else:
            hit = cls is Ident and node.name.lower() in lowered
            break
    for key in path:
        seen[key] = hit
    return hit


def _reference_seq_001(index, config, add):
    uptime = {p.lower() for p in config.uptime_patterns}
    oracle = {p.lower() for p in config.oracle_patterns}
    uptime_seen, oracle_seen, first_uptime, oracle_reads = {}, {}, {}, []
    for call, contract, fn, top in index[CallExpr]:
        if fn is None:
            continue
        if _call_matches(call, uptime, uptime_seen):
            first_uptime.setdefault(id(fn), top)
        elif _call_matches(call, oracle, oracle_seen):
            oracle_reads.append((call, contract, fn, top))
    reads = {id(call) for call, *_ in oracle_reads}
    for call, contract, fn, top in oracle_reads:
        root = call.callee  # a call on a read's result is part of that read
        while isinstance(root, (MemberAccess, IndexAccess)):
            root = root.obj
        if top <= first_uptime.get(id(fn), top) and id(root) not in reads:
            add("ARB-SEQ-001", call, f"oracle read in {contract.name}.{fn.name} without a "
                "preceding sequencer uptime check")


def _reference_time_002(index, config, add):
    ties = [
        (value, decl)
        for cls in (StateVarDecl, VarDeclStmt, AssignStmt, BinaryExpr)
        for node, *_ in index[cls]
        for value, decl in _ties(node)
        if decl is not None
    ]
    seen = {}
    linked = {id(decl) for value, decl in ties if _contains_member(value, "block", "number", seen)}
    for value, decl in ties:
        if (id(decl) in linked and isinstance(value, NumberLit)
                and value.value >= config.block_number_literal_min):
            add("ARB-TIME-002", value,
                f"hardcoded block number {value.value} tied to block.number via {decl.name!r}")


def _reference_time_003(index, config, add):
    ops = {"+", "-", "%"} | _CMP_OPS
    seen = {}
    for node, *_ in index[BinaryExpr]:
        if node.op not in ops:
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(other, NumberLit) and 0 < other.value < config.timestamp_threshold_s
                    and _contains_member(side, "block", "timestamp", seen)):
                add("ARB-TIME-003", node,
                    f"block.timestamp used against a {other.value}s interval, "
                    f"below the {config.timestamp_threshold_s}s reliability threshold")
                break


def _reference_alias_001(index, config, add):
    aliases = {p.lower() for p in config.alias_patterns}
    seen = {}
    alias_aware = {
        id(contract) for call, contract, *_ in index[CallExpr] if _call_matches(call, aliases, seen)
    }
    for node, contract, _, _ in index[BinaryExpr]:
        if node.op not in {"==", "!="} or id(contract) in alias_aware:
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if not _is_member(side, "msg", "sender"):
                continue
            var_type = _state_var_type(other)
            is_state_address = isinstance(var_type, ElementaryType) and var_type.name == "address"
            if is_state_address or isinstance(other, AddressLit):
                add("ARB-ALIAS-001", node, "msg.sender compared against a raw L1 address; "
                    "L1-contract callers arrive aliased, so this check "
                    "misbehaves for cross-chain messages")
                break


def _reference_dos_001(index, config, add):
    triggers = {t.lower() for t in config.loop_call_triggers}
    for loop, *_ in index[ForStmt] + index[WhileStmt]:
        if loop.condition is None:
            continue
        bounded = any(
            isinstance(n, MemberAccess)
            and n.member == "length"
            and isinstance(var_type := _state_var_type(n.obj), ArrayType)
            and var_type.length is None
            for n in walk(loop.condition)
        )
        if bounded and any(
            isinstance(n, CallExpr)
            and isinstance(n.callee, MemberAccess)
            and n.callee.member.lower() in triggers
            for stmt in loop.body
            for n in walk(stmt)
        ):
            add("ARB-DOS-001", loop, "loop bounded by a dynamic state array's length makes "
                "external calls; growing the array can exhaust block gas")


def _reference_dos_002(index, config, add):
    seen = {}
    protected = {
        id(fn)
        for require, _, fn, _ in index[RequireStmt]
        if any(
            isinstance(sub, BinaryExpr)
            and sub.op in {"<", "<=", ">", ">="}
            and _contains_member(sub, "msg", "value", seen)
            for sub in walk(require.condition)
        )
    }
    for fn, *_ in index[FunctionDef]:
        if fn.mutability == "payable" and "deposit" in fn.name.lower() and id(fn) not in protected:
            add("ARB-DOS-002", fn, f"payable function {fn.name!r} accepts deposits with no "
                "minimum-amount require; dust spam is cheap on L2")


_REFERENCE_DETECTORS = {
    "ARB-SEQ-001": _reference_seq_001,
    "ARB-TIME-002": _reference_time_002,
    "ARB-TIME-003": _reference_time_003,
    "ARB-ALIAS-001": _reference_alias_001,
    "ARB-DOS-001": _reference_dos_001,
    "ARB-DOS-002": _reference_dos_002,
}


def _reference_analyze(unit, config=None):
    """analyze with the detector queries above, over the sites of
    _reference_index, in place of today's."""
    sites = defaultdict(list, _reference_index(unit))

    def on_sites(detect):
        return lambda _index, config, add: detect(sites, config, add)

    detectors = {rule_id: on_sites(detect) for rule_id, detect in _REFERENCE_DETECTORS.items()}
    with mock.patch.dict(rules._DETECTORS, detectors):
        return analyze(unit, config)


_CORPUS_TOKENS = {}  # token kind -> every text of that kind in the corpus, with repeats
for _name in CORPUS_NAMES:
    _tokens = tokenize((CORPUS / _name).read_text())
    for _kind, _text in zip(_tokens.kinds, _tokens.texts):
        _CORPUS_TOKENS.setdefault(_kind, []).append(_text)


def _edit(source, rng):
    """source with 1-3 tokens each deleted, doubled or replaced by a corpus token of its kind."""
    tokens = tokenize(source)
    for i in sorted(rng.sample(range(len(tokens)), rng.randint(1, 3)), reverse=True):
        start, end, text = tokens.starts[i], tokens.ends[i], tokens.texts[i]
        text = rng.choice(["", f"{text} {text}", rng.choice(_CORPUS_TOKENS[tokens.kinds[i]])])
        source = source[:start] + text + source[end:]  # later tokens first keeps offsets valid
    return source


@st.composite
def _edited_sources(draw):
    """A corpus file under token edits that still parses, or 1-3 corpus files
    concatenated with suffixed contract names."""
    names = draw(st.lists(st.sampled_from(CORPUS_NAMES), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        return "".join(
            _suffix_contracts((CORPUS / name).read_text(), str(i)) for i, name in enumerate(names)
        )
    source = (CORPUS / names[0]).read_text()
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(100):  # about one edit in seven parses
        edited = _edit(source, rng)
        try:
            parse_source(edited)
            return edited
        except MiniSolSyntaxError:
            pass
    return source


class TestDetectorsAgainstSubtreeSearches:
    @settings(max_examples=150, deadline=None)
    @given(source=_edited_sources())
    @example(source=_chain_source("callee", 40))
    @example(source=_chain_source("index", 40))
    @example(source=_chain_source("number", 40))
    @example(source=_chain_source("timestamp", 40))
    @example(source=_chain_source("value", 40))
    def test_analyze_matches_the_subtree_searches(self, source):
        unit = parse_source(source)
        assert analyze(unit) == _reference_analyze(unit)


class TestCorpus:
    def _load_labels(self):
        return json.loads((CORPUS / "labels.json").read_text())

    def test_corpus_has_at_least_14_files_with_two_instances_per_rule(self):
        labels = self._load_labels()
        assert len(labels) >= 14
        per_rule = {}
        for items in labels.values():
            for item in items:
                per_rule[item["rule_id"]] = per_rule.get(item["rule_id"], 0) + 1
        assert set(per_rule) == {r.id for r in rule_catalog()}
        assert all(count >= 2 for count in per_rule.values())

    def test_planted_instances_detected_and_clean_twins_silent(self):
        labels = self._load_labels()
        for name, expected in sorted(labels.items()):
            unit = parse_source((CORPUS / name).read_text(), path=name)
            got = [{"rule_id": f.rule_id, "line": f.line} for f in analyze(unit)]
            assert got == expected, name

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.sol")))
    def test_printing_and_reparsing_keeps_rule_counts(self, name):
        unit = parse_source((CORPUS / name).read_text(), path=name)
        reprinted = parse_source(print_source(unit), path=name)
        assert Counter(f.rule_id for f in analyze(reprinted)) == Counter(
            f.rule_id for f in analyze(unit)
        )

    def test_json_output_byte_identical_across_runs(self):
        def run():
            findings = []
            files = []
            for name in sorted(self._load_labels()):
                unit = parse_source((CORPUS / name).read_text(), path=name)
                findings.extend(analyze(unit))
                files.append(name)
            return findings_to_json(findings, files)

        assert run() == run()


class TestFindingsDocument:
    def _sample(self):
        unit = parse_source(
            (CORPUS / "alias_permission_dirty.sol").read_text(),
            path="alias_permission_dirty.sol",
        )
        return analyze(unit)

    def test_round_trip(self):
        findings = self._sample()
        text = findings_to_json(findings, ["alias_permission_dirty.sol"])
        assert findings_from_json(text) == findings

    def test_document_shape(self):
        doc = json.loads(findings_to_json(self._sample(), ["alias_permission_dirty.sol"]))
        assert doc["version"] == "1"
        assert doc["files"] == ["alias_permission_dirty.sol"]
        entry = doc["findings"][0]
        assert set(entry) == {
            "rule_id", "file", "line", "column", "excerpt", "message", "severity", "category",
        }
        assert entry["severity"] == "high"
        assert entry["category"] == "alias_permission"

    def test_document_looks_up_each_finding_rule_once(self, monkeypatch):
        from arbmigrate import rules

        findings = self._sample()
        looked_up = Counter()

        def counting_get_rule(rule_id):
            looked_up[rule_id] += 1
            return get_rule(rule_id)

        monkeypatch.setattr(rules, "get_rule", counting_get_rule)
        rules.findings_to_doc(findings, ["alias_permission_dirty.sol"])
        assert looked_up == Counter(f.rule_id for f in findings)

    @settings(max_examples=150, deadline=None)
    @given(
        findings=st.lists(st.builds(
            Finding,
            rule_id=st.sampled_from([rule.id for rule in rule_catalog()]),
            file=st.text(),
            line=st.integers(min_value=-(2**70), max_value=2**70),
            column=st.integers(min_value=-(2**70), max_value=2**70),
            excerpt=st.text() | st.text(alphabet='"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600{},: '),
            message=st.text(),
        ), max_size=6),
        files=st.lists(st.text(), max_size=4),
    )
    @example(findings=[], files=[])
    def test_json_is_what_json_dumps_with_indent_2_writes(self, findings, files):
        expected = json.dumps(findings_to_doc(findings, files), indent=2, sort_keys=True) + "\n"
        assert findings_to_json(findings, files) == expected

    def test_rejects_unknown_rule_ids(self):
        with pytest.raises(ValueError):
            findings_from_json(json.dumps({"findings": [{"rule_id": "NOPE", "file": "x", "line": 1, "column": 1}]}))


class TestRuleConfigFile:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "enabled": ["ARB-SEQ-001"],
            "oracle_patterns": ["spotPrice"],
            "uptime_patterns": ["ping"],
            "timestamp_threshold_s": 120,
        }))
        config = RuleConfig.from_file(path)
        assert config.enabled == frozenset({"ARB-SEQ-001"})
        assert config.oracle_patterns == ("spotPrice",)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RuleConfig.from_json('{"orakle_patterns": []}')

    def test_empty_patterns_with_rule_enabled_rejected(self):
        with pytest.raises(ValueError):
            RuleConfig(oracle_patterns=())

    def test_unknown_enabled_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleConfig(enabled=frozenset({"ARB-XXX-999"}))


class TestRuleConfigContract:
    @pytest.mark.parametrize("kwargs", [
        {"timestamp_threshold_s": 0},
        {"block_number_literal_min": -1},
        {"alias_patterns": ()},
        {"loop_call_triggers": ()},
    ])
    def test_bad_values_raise_on_construction(self, kwargs):
        with pytest.raises(ValueError):
            RuleConfig(**kwargs)

    def test_with_enabled_and_replace_validate(self):
        config = RuleConfig(enabled=frozenset({"ARB-DOS-002"}), oracle_patterns=())
        with pytest.raises(ValueError, match="oracle_patterns must be nonempty"):
            config.with_enabled(["ARB-SEQ-001"])
        with pytest.raises(ValueError, match="unknown rule id"):
            config.with_enabled(["ARB-XXX-999"])
        with pytest.raises(ValueError, match="timestamp_threshold_s must be positive"):
            config._replace(timestamp_threshold_s=0)
        narrowed = config.with_enabled(["ARB-TIME-001"])
        assert narrowed == RuleConfig(enabled=frozenset({"ARB-TIME-001"}), oracle_patterns=())

    def test_config_is_immutable(self):
        config = RuleConfig()
        with pytest.raises(AttributeError):
            config.timestamp_threshold_s = 5
        with pytest.raises(AttributeError):
            config.new_setting = 5
        assert config.timestamp_threshold_s == 60

    def test_equal_configs_compare_and_hash_equal(self):
        a, b = RuleConfig(timestamp_threshold_s=30), RuleConfig(timestamp_threshold_s=30)
        assert a == b and hash(a) == hash(b)
        assert a != RuleConfig()
        assert RuleConfig().with_enabled(["ARB-SEQ-001"]) == RuleConfig(enabled=frozenset({"ARB-SEQ-001"}))

    def test_positional_construction_follows_field_order(self):
        config = RuleConfig(frozenset({"ARB-TIME-003"}))
        assert config.enabled == frozenset({"ARB-TIME-003"})
        assert config.oracle_patterns == RuleConfig().oracle_patterns


class TestChecklist:
    def test_zero_findings_gives_four_base_steps(self):
        steps = migration_checklist([])
        assert [s.key for s in steps] == ["pause", "recover", "deploy", "batch"]
        assert all(not s.notes and not s.related_rule_ids for s in steps)

    def test_alias_finding_adds_deploy_subitem(self):
        finding = Finding("ARB-ALIAS-001", "a.sol", 5, 9, "require(...)", "msg")
        steps = {s.key: s for s in migration_checklist([finding])}
        deploy = steps["deploy"]
        assert deploy.related_rule_ids == ("ARB-ALIAS-001",)
        assert any("aliased address" in note for note in deploy.notes)

    def test_gas_findings_annotate_batch_step(self):
        finding = Finding("ARB-DOS-001", "a.sol", 6, 9, "for (...)", "msg")
        steps = {s.key: s for s in migration_checklist([finding])}
        assert steps["batch"].related_rule_ids == ("ARB-DOS-001",)

    def test_ordering_stable_across_runs(self):
        findings = [
            Finding("ARB-DOS-001", "a.sol", 6, 9, "", ""),
            Finding("ARB-ALIAS-001", "a.sol", 5, 9, "", ""),
            Finding("ARB-TIME-001", "b.sol", 2, 1, "", ""),
        ]
        assert migration_checklist(findings) == migration_checklist(list(reversed(findings)))

    def test_render_is_text_with_numbered_steps(self):
        text = render_checklist(migration_checklist([]))
        assert text.startswith("1. Pause the source contract")
        assert "4. Write large state in batches" in text
