"""Rule engine over MiniSol ASTs: the four migration risk categories.

Detection is syntactic plus the parser's name resolution (``Ident.decl``);
helper functions are recognized by configurable name patterns, not data
flow.  Output is deterministic: findings sort by (file, line, column, rule id)
and the JSON form is canonical (sorted keys, LF, trailing newline).
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .minisol import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    CallExpr,
    ElementaryType,
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
    annotate_bindings,
    children,
    walk,
)
from .minisol.parser import _Index

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


class Rule(NamedTuple):
    id: str
    category: Category
    severity: Severity
    description: str
    remediation: str


class Finding(NamedTuple):
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


class _RuleSettings(NamedTuple):
    enabled: frozenset[str] = frozenset(_RULES_BY_ID)
    oracle_patterns: tuple[str, ...] = ("latestRoundData", "getPrice", "getGLPprice")
    uptime_patterns: tuple[str, ...] = ("sequencerUptimeFeed", "checkSequencerUp")
    alias_patterns: tuple[str, ...] = ("applyL1ToL2Alias", "undoL1ToL2Alias")
    timestamp_threshold_s: int = 60
    loop_call_triggers: tuple[str, ...] = ("transfer", "send", "call")
    block_number_literal_min: int = 1_000_000  # heuristic floor for "looks like a block height"


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


def _contains_member(node: Node, obj_name: str, member: str, seen: dict[int, bool]) -> bool:
    """Whether node's subtree holds obj_name.member; depth first, stopping at the first one.

    seen keeps every answer by node id, and a hit answers the whole path to
    it, so on a chain whose every link is asked about each node is tested
    once.  Each obj_name.member needs its own seen, kept no longer than its nodes."""
    path = []  # (node, iterator over its children) for each open node
    while True:
        if not node._child_fields:  # a leaf, so no member access: not worth keeping
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


def _call_matches(call: CallExpr, lowered: set[str], seen: dict[int, bool]) -> bool:
    """Whether a name on call's callee chain (feed.getPrice: feed, getPrice) is
    in lowered (lower-case patterns); seen keeps each link's answer, as in _contains_member."""
    path = []  # the links read, each answered by the first answer below it
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


def _excerpt(unit: SourceUnit, node: Node, limit: int = 120) -> str:
    text = unit.source[node.span.start : node.span.end]
    first_line = text.splitlines()[0].strip() if text else ""
    if len(first_line) > limit:
        first_line = first_line[: limit - 3] + "..."
    return first_line


# --- detectors --------------------------------------------------------------

_Add = Callable[[str, Node, str], None]
_CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})


def _detect_seq_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    uptime = {p.lower() for p in config.uptime_patterns}
    oracle = {p.lower() for p in config.oracle_patterns}
    uptime_seen: dict[int, bool] = {}
    oracle_seen: dict[int, bool] = {}
    first_uptime: dict[int, int] = {}  # id(function) -> top of its first uptime check
    oracle_reads = []
    for call, contract, fn, top in index[CallExpr]:
        if fn is None:
            continue
        if _call_matches(call, uptime, uptime_seen):
            first_uptime.setdefault(id(fn), top)
        elif _call_matches(call, oracle, oracle_seen):
            oracle_reads.append((call, contract, fn, top))
    for call, contract, fn, top in oracle_reads:
        if top <= first_uptime.get(id(fn), top):
            add(
                "ARB-SEQ-001",
                call,
                f"oracle read in {contract.name}.{fn.name} without a "
                "preceding sequencer uptime check",
            )


def _detect_time_001(index: _Index, config: RuleConfig, add: _Add) -> None:
    for node, *_ in index[BinaryExpr]:
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
        for node, *_ in index[cls]
        for value, decl in _ties(node)
        if decl is not None  # a free name ties nothing
    ]
    seen: dict[int, bool] = {}
    linked = {id(decl) for value, decl in ties if _contains_member(value, "block", "number", seen)}
    for value, decl in ties:
        if (
            id(decl) in linked
            and isinstance(value, NumberLit)
            and value.value >= config.block_number_literal_min
        ):
            add(
                "ARB-TIME-002",
                value,
                f"hardcoded block number {value.value} tied to block.number via {decl.name!r}",
            )


def _detect_time_003(index: _Index, config: RuleConfig, add: _Add) -> None:
    ops = {"+", "-", "%"} | _CMP_OPS
    seen: dict[int, bool] = {}
    for node, *_ in index[BinaryExpr]:
        if node.op not in ops:
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(other, NumberLit)
                and 0 < other.value < config.timestamp_threshold_s
                and _contains_member(side, "block", "timestamp", seen)
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
    aliases = {p.lower() for p in config.alias_patterns}
    seen: dict[int, bool] = {}
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
                add(
                    "ARB-ALIAS-001",
                    node,
                    "msg.sender compared against a raw L1 address; "
                    "L1-contract callers arrive aliased, so this check "
                    "misbehaves for cross-chain messages",
                )
                break


def _detect_dos_001(index: _Index, config: RuleConfig, add: _Add) -> None:
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
            add(
                "ARB-DOS-001",
                loop,
                "loop bounded by a dynamic state array's length makes "
                "external calls; growing the array can exhaust block gas",
            )


def _detect_dos_002(index: _Index, config: RuleConfig, add: _Add) -> None:
    seen: dict[int, bool] = {}
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

    if unit.index is None:  # built by hand, never bound
        annotate_bindings(unit)
    for rule_id in sorted(cfg.enabled):
        _DETECTORS[rule_id](unit.index, cfg, add)
    findings.sort(key=Finding.sort_key)
    return findings


# --- findings document -------------------------------------------------------


def findings_to_doc(findings: Sequence[Finding], files: Sequence[str]) -> dict:
    return {
        "version": FINDINGS_SCHEMA_VERSION,
        "files": sorted(set(files)),
        "findings": [
            {**f._asdict(), "severity": rule.severity.value, "category": rule.category.value}
            for f in sorted(findings, key=Finding.sort_key)
            for rule in (get_rule(f.rule_id),)
        ],
    }


def findings_to_json(findings: Sequence[Finding], files: Sequence[str]) -> str:
    return json.dumps(findings_to_doc(findings, files), indent=2, sort_keys=True) + "\n"


def findings_from_json(text: str) -> list[Finding]:
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


class ChecklistStep(NamedTuple):
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
