"""Rule engine over MiniSol ASTs: the four migration risk categories.

Detection is purely syntactic plus light name resolution; helper functions
are recognized by configurable name patterns, not data flow.  Output is
deterministic: findings sort by (file, line, column, rule id) and the JSON
form is canonical (sorted keys, LF, trailing newline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .minisol import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    BindingKind,
    CallExpr,
    ContractDef,
    ElementaryType,
    Expr,
    ForStmt,
    FunctionDef,
    Ident,
    IndexAccess,
    MemberAccess,
    Node,
    NumberLit,
    RequireStmt,
    SourceUnit,
    StateVarDecl,
    VarDeclStmt,
    WhileStmt,
    walk,
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


@dataclass(frozen=True)
class Rule:
    id: str
    category: Category
    severity: Severity
    description: str
    remediation: str


@dataclass(frozen=True)
class Finding:
    rule_id: str
    file: str
    line: int
    column: int
    excerpt: str
    message: str

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
            "msg.sender compared with a stored or literal address in a file "
            "that never applies the L1-to-L2 address alias: messages from an "
            "L1 contract arrive under its aliased address, so raw-address "
            "permission checks fail (or let the wrong caller through)."
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


@dataclass(frozen=True)
class RuleConfig:
    enabled: frozenset[str] = frozenset(_RULES_BY_ID)
    oracle_patterns: tuple[str, ...] = ("latestRoundData", "getPrice", "getGLPprice")
    uptime_patterns: tuple[str, ...] = ("sequencerUptimeFeed", "checkSequencerUp")
    alias_patterns: tuple[str, ...] = ("applyL1ToL2Alias", "undoL1ToL2Alias")
    timestamp_threshold_s: int = 60
    loop_call_triggers: tuple[str, ...] = ("transfer", "send", "call")
    block_number_literal_min: int = 1_000_000  # heuristic floor for "looks like a block height"

    def __post_init__(self) -> None:
        for rule_id in self.enabled:
            get_rule(rule_id)
        if self.timestamp_threshold_s <= 0:
            raise ValueError("timestamp_threshold_s must be positive")
        if self.block_number_literal_min <= 0:
            raise ValueError("block_number_literal_min must be positive")
        needs = {
            "ARB-SEQ-001": (self.oracle_patterns, "oracle_patterns"),
            "ARB-ALIAS-001": (self.alias_patterns, "alias_patterns"),
            "ARB-DOS-001": (self.loop_call_triggers, "loop_call_triggers"),
        }
        for rule_id, (patterns, key) in needs.items():
            if rule_id in self.enabled and not patterns:
                raise ValueError(f"{key} must be nonempty while {rule_id} is enabled")
        if "ARB-SEQ-001" in self.enabled and not self.uptime_patterns:
            raise ValueError("uptime_patterns must be nonempty while ARB-SEQ-001 is enabled")

    def with_enabled(self, rule_ids: Iterable[str]) -> "RuleConfig":
        return replace(self, enabled=frozenset(rule_ids))

    @classmethod
    def from_json(cls, text: str) -> "RuleConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("rule config must be a JSON object")
        known = {
            "enabled", "oracle_patterns", "uptime_patterns", "alias_patterns",
            "timestamp_threshold_s", "loop_call_triggers", "block_number_literal_min",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown rule config keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs: dict = {}
        if "enabled" in data:
            kwargs["enabled"] = frozenset(data["enabled"])
        for key in ("oracle_patterns", "uptime_patterns", "alias_patterns", "loop_call_triggers"):
            if key in data:
                kwargs[key] = tuple(data[key])
        for key in ("timestamp_threshold_s", "block_number_literal_min"):
            if key in data:
                kwargs[key] = int(data[key])
        return cls(**kwargs)

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


def _contains_member(expr: Node, obj_name: str, member: str) -> bool:
    return any(_is_member(n, obj_name, member) for n in walk(expr))


def _name_parts(expr: Expr) -> list[str]:
    """Identifier components along a callee chain, e.g. feed.getPrice -> [feed, getPrice]."""
    if isinstance(expr, Ident):
        return [expr.name]
    if isinstance(expr, MemberAccess):
        return _name_parts(expr.obj) + [expr.member]
    if isinstance(expr, CallExpr):
        return _name_parts(expr.callee)
    if isinstance(expr, IndexAccess):
        return _name_parts(expr.obj)
    return []


def _call_matches(call: CallExpr, patterns: Sequence[str]) -> bool:
    lowered = {p.lower() for p in patterns}
    return any(part.lower() in lowered for part in _name_parts(call.callee))


def _excerpt(unit: SourceUnit, node: Node, limit: int = 120) -> str:
    text = unit.source[node.span.start : node.span.end]
    first_line = text.splitlines()[0].strip() if text else ""
    if len(first_line) > limit:
        first_line = first_line[: limit - 3] + "..."
    return first_line


# --- detectors --------------------------------------------------------------

_Add = Callable[[str, Node, str], None]


def _detect_seq_001(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    for contract in unit.contracts:
        for fn in contract.functions:
            uptime_seen = False
            for stmt in fn.body:
                calls = [n for n in walk(stmt) if isinstance(n, CallExpr)]
                for call in calls:
                    if _call_matches(call, config.uptime_patterns):
                        continue
                    if _call_matches(call, config.oracle_patterns) and not uptime_seen:
                        add(
                            "ARB-SEQ-001",
                            call,
                            f"oracle read in {contract.name}.{fn.name} without a "
                            "preceding sequencer uptime check",
                        )
                if any(_call_matches(c, config.uptime_patterns) for c in calls):
                    uptime_seen = True


def _detect_time_001(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    for node in walk(unit):
        if isinstance(node, BinaryExpr) and node.op in {"==", "!="}:
            if _is_member(node.left, "block", "number") or _is_member(
                node.right, "block", "number"
            ):
                add(
                    "ARB-TIME-001",
                    node,
                    "strict equality against block.number; the observed L1 "
                    "number skips values on L2, so this may never match",
                )


_CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})


def _detect_time_002(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    for contract in unit.contracts:
        linked: set[str] = set()
        for node in walk(contract):
            if isinstance(node, (StateVarDecl, VarDeclStmt)):
                if node.initializer is not None and _contains_member(
                    node.initializer, "block", "number"
                ):
                    linked.add(node.name)
            elif isinstance(node, AssignStmt):
                if isinstance(node.target, Ident) and _contains_member(
                    node.value, "block", "number"
                ):
                    linked.add(node.target.name)
            elif isinstance(node, BinaryExpr) and node.op in _CMP_OPS:
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(other, Ident) and _contains_member(side, "block", "number"):
                        linked.add(other.name)
        if not linked:
            continue

        def _flag(literal: Node, var_name: str) -> None:
            if isinstance(literal, NumberLit) and literal.value >= config.block_number_literal_min:
                add(
                    "ARB-TIME-002",
                    literal,
                    f"hardcoded block number {literal.value} tied to "
                    f"block.number via {var_name!r}",
                )

        for node in walk(contract):
            if isinstance(node, (StateVarDecl, VarDeclStmt)):
                if node.name in linked and node.initializer is not None:
                    _flag(node.initializer, node.name)
            elif isinstance(node, AssignStmt):
                if isinstance(node.target, Ident) and node.target.name in linked:
                    _flag(node.value, node.target.name)
            elif isinstance(node, BinaryExpr) and node.op in _CMP_OPS:
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(other, Ident) and other.name in linked:
                        _flag(side, other.name)


def _detect_time_003(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    ops = {"+", "-", "%"} | _CMP_OPS
    for node in walk(unit):
        if not (isinstance(node, BinaryExpr) and node.op in ops):
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(other, NumberLit)
                and 0 < other.value < config.timestamp_threshold_s
                and _contains_member(side, "block", "timestamp")
            ):
                add(
                    "ARB-TIME-003",
                    node,
                    f"block.timestamp used against a {other.value}s interval, "
                    f"below the {config.timestamp_threshold_s}s reliability threshold",
                )
                break


def _detect_alias_001(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    for node in walk(unit):
        if isinstance(node, CallExpr) and _call_matches(node, config.alias_patterns):
            return  # file is alias-aware
    for contract in unit.contracts:
        address_vars = {
            v.name
            for v in contract.state_vars
            if isinstance(v.var_type, ElementaryType) and v.var_type.name == "address"
        }
        for node in walk(contract):
            if not (isinstance(node, BinaryExpr) and node.op in {"==", "!="}):
                continue
            for side, other in ((node.left, node.right), (node.right, node.left)):
                if not _is_member(side, "msg", "sender"):
                    continue
                is_state_address = (
                    isinstance(other, Ident)
                    and other.binding is BindingKind.STATE_VAR
                    and other.name in address_vars
                )
                if is_state_address or isinstance(other, AddressLit):
                    add(
                        "ARB-ALIAS-001",
                        node,
                        "msg.sender compared against a raw L1 address; "
                        "L1-contract callers arrive aliased, so this check "
                        "misbehaves for cross-chain messages",
                    )
                    break


def _loop_over_dynamic_state_array(
    condition: Expr | None, dynamic_arrays: set[str]
) -> bool:
    if condition is None:
        return False
    for node in walk(condition):
        if (
            isinstance(node, MemberAccess)
            and node.member == "length"
            and isinstance(node.obj, Ident)
            and node.obj.name in dynamic_arrays
            and node.obj.binding is BindingKind.STATE_VAR
        ):
            return True
    return False


def _detect_dos_001(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    triggers = {t.lower() for t in config.loop_call_triggers}
    for contract in unit.contracts:
        dynamic_arrays = {
            v.name
            for v in contract.state_vars
            if isinstance(v.var_type, ArrayType) and v.var_type.length is None
        }
        if not dynamic_arrays:
            continue
        for node in walk(contract):
            if not isinstance(node, (ForStmt, WhileStmt)):
                continue
            if not _loop_over_dynamic_state_array(node.condition, dynamic_arrays):
                continue
            for inner in node.body:
                body_calls = [
                    n
                    for n in walk(inner)
                    if isinstance(n, CallExpr)
                    and isinstance(n.callee, MemberAccess)
                    and n.callee.member.lower() in triggers
                ]
                if body_calls:
                    add(
                        "ARB-DOS-001",
                        node,
                        "loop bounded by a dynamic state array's length makes "
                        "external calls; growing the array can exhaust block gas",
                    )
                    break


def _detect_dos_002(unit: SourceUnit, config: RuleConfig, add: _Add) -> None:
    for contract in unit.contracts:
        for fn in contract.functions:
            if fn.mutability != "payable" or "deposit" not in fn.name.lower():
                continue
            protected = False
            for node in walk(fn):
                if not isinstance(node, RequireStmt):
                    continue
                for sub in walk(node.condition):
                    if (
                        isinstance(sub, BinaryExpr)
                        and sub.op in {"<", "<=", ">", ">="}
                        and (
                            _contains_member(sub.left, "msg", "value")
                            or _contains_member(sub.right, "msg", "value")
                        )
                    ):
                        protected = True
                        break
                if protected:
                    break
            if not protected:
                add(
                    "ARB-DOS-002",
                    fn,
                    f"payable function {fn.name!r} accepts deposits with no "
                    "minimum-amount require; dust spam is cheap on L2",
                )


_DETECTORS: dict[str, Callable[[SourceUnit, RuleConfig, _Add], None]] = {
    "ARB-SEQ-001": _detect_seq_001,
    "ARB-TIME-001": _detect_time_001,
    "ARB-TIME-002": _detect_time_002,
    "ARB-TIME-003": _detect_time_003,
    "ARB-ALIAS-001": _detect_alias_001,
    "ARB-DOS-001": _detect_dos_001,
    "ARB-DOS-002": _detect_dos_002,
}


def analyze(unit: SourceUnit, config: RuleConfig | None = None) -> list[Finding]:
    """Run every enabled rule over one parsed source unit."""
    cfg = config or DEFAULT_CONFIG
    findings: list[Finding] = []

    def add(rule_id: str, node: Node, message: str) -> None:
        findings.append(
            Finding(
                rule_id=rule_id,
                file=unit.path,
                line=node.span.line,
                column=node.span.column,
                excerpt=_excerpt(unit, node),
                message=message,
            )
        )

    for rule_id in sorted(cfg.enabled):
        _DETECTORS[rule_id](unit, cfg, add)
    findings.sort(key=Finding.sort_key)
    return findings


# --- findings document -------------------------------------------------------


def findings_to_doc(findings: Sequence[Finding], files: Sequence[str]) -> dict:
    return {
        "version": FINDINGS_SCHEMA_VERSION,
        "files": sorted(set(files)),
        "findings": [
            {
                "rule_id": f.rule_id,
                "file": f.file,
                "line": f.line,
                "column": f.column,
                "excerpt": f.excerpt,
                "message": f.message,
                "severity": get_rule(f.rule_id).severity.value,
                "category": get_rule(f.rule_id).category.value,
            }
            for f in sorted(findings, key=Finding.sort_key)
        ],
    }


def findings_to_json(findings: Sequence[Finding], files: Sequence[str]) -> str:
    return json.dumps(findings_to_doc(findings, files), indent=2, sort_keys=True) + "\n"


def findings_from_json(text: str) -> list[Finding]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "findings" not in doc:
        raise ValueError("not a findings document: missing 'findings'")
    out = []
    for item in doc["findings"]:
        get_rule(item["rule_id"])  # validate known rule
        out.append(
            Finding(
                rule_id=item["rule_id"],
                file=item["file"],
                line=int(item["line"]),
                column=int(item["column"]),
                excerpt=item.get("excerpt", ""),
                message=item.get("message", ""),
            )
        )
    out.sort(key=Finding.sort_key)
    return out


# --- migration checklist ------------------------------------------------------


@dataclass(frozen=True)
class ChecklistStep:
    key: str
    title: str
    detail: str
    notes: tuple[str, ...] = ()
    related_rule_ids: tuple[str, ...] = ()


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
