"""Rule engine over MiniSol ASTs: the four migration risk categories.

Detection is syntactic plus what binding sets, in the parser's one pass: name resolution
(``Ident.decl``), parent links (``Node.parent``) and the node index; helper
functions are recognized by configurable name patterns, not data flow.
Output is deterministic: findings sort by (file, line, column, rule id) and
the JSON form is canonical (sorted keys, LF, trailing newline).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ._record import quote
from .minisol import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    CallExpr,
    ContractDef,
    ElementaryType,
    ForStmt,
    FunctionDef,
    HexLit,
    Ident,
    IndexAccess,
    LineIndex,
    MemberAccess,
    Node,
    NumberLit,
    RequireStmt,
    SourceUnit,
    StateVarDecl,
    VarDeclStmt,
    WhileStmt,
)

FINDINGS_SCHEMA_VERSION = "1"


class Category(Enum):
    SEQUENCER_STALENESS = "sequencer_staleness"
    TIME_LOGIC = "time_logic"
    ALIAS_PERMISSION = "alias_permission"
    GAS_DOS = "gas_dos"


class Severity(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    INFO = "info"


Rule = namedtuple("Rule", "id category severity description remediation")


class Finding(namedtuple("Finding", "rule_id file line column excerpt message")):
    __slots__ = ()

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.column, self.rule_id)


RULES: tuple[Rule, ...] = (
    Rule(
        id="ARB-SEQ-001",
        category=Category.SEQUENCER_STALENESS,
        severity=Severity.HIGH,
        description=(
            "Oracle read with no prior sequencer uptime check in the same "
            "function: a downed sequencer serves stale data, so prices and "
            "market reads can be outdated without any error."
        ),
        remediation=(
            "Check a Chainlink L2 Sequencer Uptime Feed (or an equivalent "
            "liveness probe) earlier in the function and bail out unless the "
            "sequencer is up before trusting off-chain reads."
        ),
    ),
    Rule(
        id="ARB-TIME-001",
        category=Category.TIME_LOGIC,
        severity=Severity.HIGH,
        description=(
            "Strict equality against block.number: the L2 view of the L1 "
            "block number refreshes about once a minute and skips values, so "
            "an exact match may never occur."
        ),
        remediation=(
            "Use >= / <= range conditions instead of equality, and avoid "
            "block information entirely where timing is critical."
        ),
    ),
    Rule(
        id="ARB-TIME-002",
        category=Category.TIME_LOGIC,
        severity=Severity.MEDIUM,
        description=(
            "Hardcoded block number (large literal tied to a block.number "
            "variable): block heights differ across chains and the L2 view "
            "skips values, so pinned heights misbehave after migration."
        ),
        remediation=(
            "Do not hardcode block numbers for scheduling or lookups; derive "
            "heights at runtime or key logic on explicit configuration."
        ),
    ),
    Rule(
        id="ARB-TIME-003",
        category=Category.TIME_LOGIC,
        severity=Severity.MEDIUM,
        description=(
            "Arithmetic on block.timestamp against a short literal interval: "
            "sequencer timestamps are low precision and may repeat across "
            "blocks, so sub-minute windows are unreliable."
        ),
        remediation=(
            "Treat timestamps as coarse: use intervals well above the "
            "sequencer clock precision and tolerate duplicate timestamps."
        ),
    ),
    Rule(
        id="ARB-ALIAS-001",
        category=Category.ALIAS_PERMISSION,
        severity=Severity.HIGH,
        description=(
            "msg.sender compared with a stored or literal address in a "
            "contract that never applies the L1-to-L2 address alias: messages "
            "from an L1 contract arrive under its aliased address, so "
            "raw-address permission checks fail (or let the wrong caller "
            "through)."
        ),
        remediation=(
            "Alias-adjust before comparing: apply the L1-to-L2 alias offset "
            "to stored L1 addresses (applyL1ToL2Alias / undoL1ToL2Alias) so "
            "owners set from L1 keep working after migration."
        ),
    ),
    Rule(
        id="ARB-DOS-001",
        category=Category.GAS_DOS,
        severity=Severity.HIGH,
        description=(
            "Loop over a dynamic state array performing external "
            "calls/transfers: anyone who can grow the array can push the "
            "loop past the block gas limit and brick the function. Cheap L2 "
            "fees make inflating the array affordable."
        ),
        remediation=(
            "Limit the size of arrays, or replace the loop with per-item "
            "pull-style withdrawals (e.g. iterate mapping keys off-chain)."
        ),
    ),
    Rule(
        id="ARB-DOS-002",
        category=Category.GAS_DOS,
        severity=Severity.INFO,
        description=(
            "Payable deposit-style function without a minimum-amount check: "
            "low fees make large volumes of dust deposits economical, "
            "bloating state and griefing batch operations."
        ),
        remediation=(
            "Require a minimum deposit amount (and consider deposit "
            "thresholds or time intervals between deposits) to price out "
            "dust spam."
        ),
    ),
)

_RULES_BY_ID = {r.id: r for r in RULES}


def rule_catalog() -> list[Rule]:
    return list(RULES)


class UnknownRuleError(ValueError):
    pass


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES_BY_ID[rule_id]
    except KeyError:
        raise UnknownRuleError(
            f"unknown rule id {rule_id!r}; known: {', '.join(sorted(_RULES_BY_ID))}"
        ) from None


_SETTINGS = {  # each rule setting, in field order, and its default
    "enabled": frozenset(_RULES_BY_ID),
    "oracle_patterns": ("latestRoundData", "getPrice", "getGLPprice"),
    "uptime_patterns": ("sequencerUptimeFeed", "checkSequencerUp"),
    "alias_patterns": ("applyL1ToL2Alias", "undoL1ToL2Alias"),
    "timestamp_threshold_s": 60,
    "loop_call_triggers": ("transfer", "send", "call"),
    "block_number_literal_min": 1_000_000,  # heuristic floor for "looks like a block height"
}
_RuleSettings = namedtuple("_RuleSettings", _SETTINGS, defaults=_SETTINGS.values())


class RuleConfig(_RuleSettings):
    """Immutable rule settings, checked whenever one is built (``_replace`` included)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RuleConfig":
        self = super().__new__(cls, *args, **kwargs)
        for rule_id in self.enabled:
            get_rule(rule_id)
        if self.timestamp_threshold_s <= 0:
            raise ValueError("timestamp_threshold_s must be positive")
        if self.block_number_literal_min <= 0:
            raise ValueError("block_number_literal_min must be positive")
        needs = (
            ("ARB-SEQ-001", self.oracle_patterns, "oracle_patterns"),
            ("ARB-ALIAS-001", self.alias_patterns, "alias_patterns"),
            ("ARB-DOS-001", self.loop_call_triggers, "loop_call_triggers"),
            ("ARB-SEQ-001", self.uptime_patterns, "uptime_patterns"),
        )
        for rule_id, patterns, key in needs:
            if rule_id in self.enabled and not patterns:
                raise ValueError(f"{key} must be nonempty while {rule_id} is enabled")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "RuleConfig":
        return cls(*iterable)

    def with_enabled(self, rule_ids: Iterable[str]) -> "RuleConfig":
        return self._replace(enabled=frozenset(rule_ids))

    @classmethod
    def from_json(cls, text: str) -> "RuleConfig":
        import json  # only the two readers parse JSON; analyze without --config never loads it

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("rule config must be a JSON object")
        defaults = cls._field_defaults
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown rule config keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(defaults))}"
            )
        # each value takes its default's type: int, or frozenset/tuple of names
        values = {}
        for key, value in data.items():
            kind = type(defaults[key])
            if kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            if not ok:
                expected = "an integer" if kind is int else "a list of strings"
                raise ValueError(f"rule config key {key!r} expects {expected}, got {value!r}")
            values[key] = kind(value)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "RuleConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


DEFAULT_CONFIG = RuleConfig()


# --- AST helpers ------------------------------------------------------------


def _is_member(expr: Node, obj_name: str, member: str) -> bool:
    return (
        isinstance(expr, MemberAccess)
        and expr.member == member
        and isinstance(expr.obj, Ident)
        and expr.obj.name == obj_name
    )


def _holders(starts: Iterable[Node]) -> set[int]:
    """The ids of each start node and of every node above it, along the parent
    links the binder set.  A climb stops at a node already marked, so each node
    is marked once."""
    marked: set[int] = set()
    for node in starts:
        while node is not None and id(node) not in marked:
            marked.add(id(node))
            node = node.parent
    return marked


def _enclosing(node: Node, cls: type) -> tuple[Node | None, Node]:
    """The nearest node of class cls above node (None if none), and the node just under it."""
    below, holder = node, node.parent
    while holder is not None and holder.__class__ is not cls:
        below, holder = holder, holder.parent
    return holder, below


def _chain_root(call: CallExpr) -> Node:
    """Where call's callee chain ends, followed down member and index access."""
    node = call.callee
    while (cls := node.__class__) is MemberAccess or cls is IndexAccess:
        node = node.obj
    return node


@lru_cache(maxsize=32)
def _lowered(names: tuple[str, ...]) -> frozenset[str]:
    """names in lower case, once per distinct tuple of a RuleConfig rather than per unit."""
    return frozenset(name.lower() for name in names)


def _calls_named(index: _Index, patterns: Iterable[str]) -> set[int]:
    """The ids of the calls whose callee chain (feed.getPrice: feed, getPrice;
    never an argument or index) names one of patterns, ignoring case.  Buckets
    are in pre-order, so in reverse an inner call on a chain is answered first."""
    lowered = _lowered(tuple(patterns))
    named: set[int] = set()
    for call in reversed(index[CallExpr]):
        node = call.callee
        while (cls := node.__class__) is MemberAccess or cls is IndexAccess:
            if cls is MemberAccess and node.member.lower() in lowered:
                break
            node = node.obj
        if (
            cls is MemberAccess  # a named member ended the chain
            or cls is Ident and node.name.lower() in lowered
            or cls is CallExpr and id(node) in named
        ):
            named.add(id(call))
    return named


def _excerpt(unit: SourceUnit, node: Node, limit: int = 120) -> str:
    text = unit.source[node.span.start : node.span.end]
    first_line = text.partition("\n")[0].partition("\r")[0].strip()  # lines end where LineIndex counts them
    if len(first_line) > limit:
        first_line = first_line[: limit - 3] + "..."
    return first_line


# --- detectors --------------------------------------------------------------

_Index = dict[type, list[Node]]  # SourceUnit.index, as the parser sets it
_Add = Callable[[str, Node, str], None]
_CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_INTERVAL_OPS = _CMP_OPS | {"+", "-", "%"}  # what ARB-TIME-003 applies to a timestamp
_INT_LITS = (NumberLit, HexLit)  # integer literals, decimal or hex


def _detect_seq_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    uptime = _calls_named(index, config.uptime_patterns)
    oracle = _calls_named(index, config.oracle_patterns)
    first_uptime: dict[int, Node] = {}  # id(function) -> top statement of its first uptime check
    for call in index[CallExpr]:  # in pre-order, so a function's statements in source order
        is_uptime = id(call) in uptime
        # a call on a read's result (feed.getPrice().latest()) is part of that one read
        if not is_uptime and (id(call) not in oracle or id(_chain_root(call)) in oracle):
            continue
        fn, top = _enclosing(call, FunctionDef)
        if fn is None:
            continue
        if is_uptime:
            first_uptime.setdefault(id(fn), top)
        elif first_uptime.get(id(fn), top) is top:
            add(
                "ARB-SEQ-001",
                call,
                f"oracle read in {fn.parent.name}.{fn.name} without a "
                "preceding sequencer uptime check",
            )


def _detect_time_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    for node in index[BinaryExpr]:
        if node.op in {"==", "!="} and (
            _is_member(node.left, "block", "number") or _is_member(node.right, "block", "number")
        ):
            add(
                "ARB-TIME-001",
                node,
                "strict equality against block.number; the observed L1 "
                "number skips values on L2, so this may never match",
            )


def _ties(node: Node) -> list[tuple[Node, Node | None]]:
    """(value, declaration) pairs node ties: a declaration's initializer, an
    assignment's value, or a comparison's side opposite a bare variable."""
    if isinstance(node, (StateVarDecl, VarDeclStmt)):
        return [] if node.initializer is None else [(node.initializer, node)]
    if isinstance(node, AssignStmt):
        return [(node.value, node.target.decl)] if isinstance(node.target, Ident) else []
    if node.op not in _CMP_OPS:
        return []
    pairs = ((node.left, node.right), (node.right, node.left))
    return [(side, other.decl) for side, other in pairs if isinstance(other, Ident)]


def _detect_time_002(index: _Index, config: RuleConfig, add: _Add) -> None:
    ties = [
        (value, decl)
        for cls in (StateVarDecl, VarDeclStmt, AssignStmt, BinaryExpr)
        for node in index[cls]
        for value, decl in _ties(node)
        if decl is not None  # a free name ties nothing
    ]
    numbers = _holders(n for n in index[MemberAccess] if _is_member(n, "block", "number"))
    linked = {id(decl) for value, decl in ties if id(value) in numbers}
    for value, decl in ties:
        if (
            id(decl) in linked
            and isinstance(value, _INT_LITS)
            and value.value >= config.block_number_literal_min
        ):
            add(
                "ARB-TIME-002",
                value,
                f"hardcoded block number {value.value} tied to block.number via {decl.name!r}",
            )


def _detect_time_003(index: _Index, config: RuleConfig, add: _Add) -> None:
    stamps = _holders(n for n in index[MemberAccess] if _is_member(n, "block", "timestamp"))
    for node in index[BinaryExpr]:
        if node.op not in _INTERVAL_OPS:
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(other, _INT_LITS)
                and 0 < other.value < config.timestamp_threshold_s
                and id(side) in stamps
            ):
                add(
                    "ARB-TIME-003",
                    node,
                    f"block.timestamp used against a {other.value}s interval, "
                    f"below the {config.timestamp_threshold_s}s reliability threshold",
                )
                break


def _state_var_type(expr: Node) -> Node | None:
    """The declared type of the state variable that expr names, else None."""
    if isinstance(expr, Ident) and isinstance(expr.decl, StateVarDecl):
        return expr.decl.var_type
    return None


def _detect_alias_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    aliases = _calls_named(index, config.alias_patterns)
    alias_aware = {id(_enclosing(c, ContractDef)[0]) for c in index[CallExpr] if id(c) in aliases}
    for node in index[BinaryExpr]:
        if node.op not in {"==", "!="}:
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if not _is_member(side, "msg", "sender"):
                continue
            var_type = _state_var_type(other)
            is_state_address = isinstance(var_type, ElementaryType) and var_type.name == "address"
            if is_state_address or isinstance(other, AddressLit):
                if id(_enclosing(node, ContractDef)[0]) not in alias_aware:
                    add(
                        "ARB-ALIAS-001",
                        node,
                        "msg.sender compared against a raw L1 address; "
                        "L1-contract callers arrive aliased, so this check "
                        "misbehaves for cross-chain messages",
                    )
                break


def _detect_dos_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    triggers = _lowered(tuple(config.loop_call_triggers))
    bounds = _holders(
        n for n in index[MemberAccess]
        if n.member == "length"
        and isinstance(var_type := _state_var_type(n.obj), ArrayType)
        and var_type.length is None
    )
    calls = _holders(
        call for call in index[CallExpr]
        if isinstance(call.callee, MemberAccess) and call.callee.member.lower() in triggers
    )
    for loop in index[ForStmt] + index[WhileStmt]:  # no climb marks a for (;;)'s None
        if id(loop.condition) in bounds and any(id(stmt) in calls for stmt in loop.body):
            add(
                "ARB-DOS-001",
                loop,
                "loop bounded by a dynamic state array's length makes "
                "external calls; growing the array can exhaust block gas",
            )


def _detect_dos_002(index: _Index, config: RuleConfig, add: _Add) -> None:
    values = _holders(n for n in index[MemberAccess] if _is_member(n, "msg", "value"))
    checks = _holders(
        node for node in index[BinaryExpr]
        if node.op in {"<", "<=", ">", ">="} and id(node) in values
    )
    protected = _holders(req for req in index[RequireStmt] if id(req.condition) in checks)
    for fn in index[FunctionDef]:
        if fn.mutability == "payable" and "deposit" in fn.name.lower() and id(fn) not in protected:
            add(
                "ARB-DOS-002",
                fn,
                f"payable function {fn.name!r} accepts deposits with no "
                "minimum-amount require; dust spam is cheap on L2",
            )


_DETECTORS: dict[str, Callable[[_Index, RuleConfig, _Add], None]] = {
    "ARB-SEQ-001": _detect_seq_001,
    "ARB-TIME-001": _detect_time_001,
    "ARB-TIME-002": _detect_time_002,
    "ARB-TIME-003": _detect_time_003,
    "ARB-ALIAS-001": _detect_alias_001,
    "ARB-DOS-001": _detect_dos_001,
    "ARB-DOS-002": _detect_dos_002,
}


def analyze(unit: SourceUnit, config: RuleConfig | None = None) -> list[Finding]:
    """Run every enabled rule over one source unit as parse_source binds it.  A unit
    built by hand or edited after parsing must go through annotate_bindings first:
    an unbound one (``unit.index`` None) raises TypeError."""
    cfg = config or DEFAULT_CONFIG
    findings: list[Finding] = []
    lines = LineIndex(unit.source)

    def add(rule_id: str, node: Node, message: str) -> None:
        line, column = lines.position(node.span.start)
        findings.append(
            Finding(
                rule_id=rule_id,
                file=unit.path,
                line=line,
                column=column,
                excerpt=_excerpt(unit, node),
                message=message,
            )
        )

    # findings sort below, so the detectors may run in any order
    enabled = cfg.enabled
    for rule_id, detect in _DETECTORS.items():
        if rule_id in enabled:
            detect(unit.index, cfg, add)
    findings.sort(key=Finding.sort_key)
    return findings


# --- findings reports -------------------------------------------------------


def _member_array(items: list[str]) -> str:
    """Encoded items as indent=2 lays out an array member of the top-level object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def findings_to_json(findings: Sequence[Finding], files: Sequence[str]) -> str:
    """The findings document (the distinct files, each finding with its rule's severity
    and category, the schema version), byte for byte as json.dumps(..., indent=2,
    sort_keys=True) writes it, and a newline.  Its shape is fixed, so each finding's
    eight keys are written here in sorted order."""
    objects = [
        f'{{\n      "category": "{rule.category.value}",\n      "column": {f.column},'
        f'\n      "excerpt": {quote(f.excerpt)},\n      "file": {quote(f.file)},'
        f'\n      "line": {f.line},\n      "message": {quote(f.message)},'
        f'\n      "rule_id": {quote(f.rule_id)},\n      "severity": "{rule.severity.value}"\n    }}'
        for f in sorted(findings, key=Finding.sort_key)
        for rule in (get_rule(f.rule_id),)
    ]
    return (
        f'{{\n  "files": {_member_array([quote(name) for name in sorted(set(files))])},'
        f'\n  "findings": {_member_array(objects)},'
        f'\n  "version": "{FINDINGS_SCHEMA_VERSION}"\n}}\n'
    )


def findings_to_text(findings: Sequence[Finding], files: Sequence[str]) -> str:
    """The text report: a line per finding, its excerpt indented on the next line when
    it has one, then a line counting the findings and the files analyzed."""
    return "".join(
        f"{f.file}:{f.line}:{f.column}: {rule.severity.value} {f.rule_id}: {f.message}\n"
        + (f"    {f.excerpt}\n" if f.excerpt else "")
        for f in sorted(findings, key=Finding.sort_key)
        for rule in (get_rule(f.rule_id),)
    ) + f"{len(findings)} finding(s) in {len(files)} file(s)\n"


def findings_from_json(text: str) -> list[Finding]:
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict) or "findings" not in doc:
        raise ValueError("not a findings document: missing 'findings'")
    if not isinstance(doc["findings"], list):
        raise ValueError("not a findings document: 'findings' is not a list")
    out = []
    for index, item in enumerate(doc["findings"]):
        if not isinstance(item, dict):
            raise ValueError(f"finding {index} is malformed: not an object")
        item = {"excerpt": "", "message": "", **item}
        for key in Finding._fields:  # JSON integers for line and column, strings for the rest
            if key not in item:
                raise ValueError(f"finding {index} lacks {key!r}")
            kind = int if key in ("line", "column") else str
            if type(item[key]) is not kind:
                expected = "an integer" if kind is int else "a string"
                raise ValueError(f"finding {index}: field {key!r} expects {expected}, got {item[key]!r}")
        finding = Finding(*(item[key] for key in Finding._fields))
        get_rule(finding.rule_id)
        out.append(finding)
    out.sort(key=Finding.sort_key)
    return out


# --- migration checklist ------------------------------------------------------


ChecklistStep = namedtuple("ChecklistStep", "key title detail notes related_rule_ids", defaults=[(), ()])


_BASE_STEPS: tuple[tuple[str, str, str], ...] = (
    (
        "pause",
        "Pause the source contract",
        "Suspend the contract's operation during data recovery so state "
        "cannot change mid-migration and users cannot be exploited by the move.",
    ),
    (
        "recover",
        "Recover the data to be migrated",
        "Read public variables through their getters, replay emitted events, "
        "and pull private variables from storage slots (getStorageAt-style) "
        "at a pinned block.",
    ),
    (
        "deploy",
        "Deploy and initialize the new contract on the target chain",
        "Deploy, then set simple values through the constructor; verify "
        "initialization before opening to users.",
    ),
    (
        "batch",
        "Write large state in batches",
        "Split large datasets into multiple transactions (e.g. token "
        "balances migrated via transfer records) instead of one oversized write.",
    ),
)

# category -> (step key, note describing the extra work the findings imply)
_CATEGORY_STEP_NOTES: dict[Category, tuple[str, str]] = {
    Category.ALIAS_PERMISSION: (
        "deploy",
        "Re-derive privileged addresses: owners/admins set from L1 contracts "
        "must be stored as their aliased addresses on the target chain",
    ),
    Category.TIME_LOGIC: (
        "deploy",
        "Audit block-number and timestamp logic before initialization: the "
        "target chain updates the observed L1 block number about once a "
        "minute and uses coarse sequencer timestamps",
    ),
    Category.SEQUENCER_STALENESS: (
        "deploy",
        "Gate oracle reads behind a sequencer uptime check before opening "
        "the migrated contract to traffic",
    ),
    Category.GAS_DOS: (
        "batch",
        "Bound array sizes and enforce deposit minimums while re-writing "
        "state: cheap target-chain fees make dust spam and loop griefing "
        "economical",
    ),
}


def migration_checklist(findings: Sequence[Finding]) -> list[ChecklistStep]:
    """The ordered migration steps, annotated with the findings they must absorb."""
    by_category: dict[Category, list[Finding]] = {}
    for finding in sorted(findings, key=Finding.sort_key):
        by_category.setdefault(get_rule(finding.rule_id).category, []).append(finding)

    steps = []
    for key, title, detail in _BASE_STEPS:
        notes: list[str] = []
        related: list[str] = []
        for category in Category:
            step_key, note = _CATEGORY_STEP_NOTES[category]
            if step_key != key or category not in by_category:
                continue
            hits = by_category[category]
            rule_ids = sorted({f.rule_id for f in hits})
            locations = ", ".join(f"{f.file}:{f.line}" for f in hits[:3])
            if len(hits) > 3:
                locations += ", ..."
            notes.append(f"{note} ({len(hits)} finding(s): {locations})")
            related.extend(rule_ids)
        steps.append(
            ChecklistStep(
                key=key,
                title=title,
                detail=detail,
                notes=tuple(notes),
                related_rule_ids=tuple(sorted(set(related))),
            )
        )
    return steps


def render_checklist(steps: Sequence[ChecklistStep]) -> str:
    lines = []
    for i, step in enumerate(steps, start=1):
        lines.append(f"{i}. {step.title}")
        lines.append(f"   {step.detail}")
        for note in step.notes:
            lines.append(f"   - {note}")
        if step.related_rule_ids:
            lines.append(f"   related rules: {', '.join(step.related_rule_ids)}")
    return "\n".join(lines) + "\n"
