"""Built-in differential scenarios: each runs the same situation under L1 and
L2 semantics and reports named divergence metrics (all zero exactly when the
two outcomes are identical).

Scenarios are parameterized models coded against the simulator modules; there
is no contract VM.  Randomness (the S1 price path) comes from a seeded
generator, so a fixed (id, params, seed) triple produces a byte-identical
serialized report.  S5 runs its three ticket paths as event scripts through
``replay_events``, the one code that drives tickets.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from typing import Any, Callable, Mapping, NoReturn

from . import retryable
from ._record import FrozenRecord, Record, dump_json
from .aliasing import ALIAS_OFFSET, HEX_ADDRESS_RE, Address, SenderKind, apply_alias, l2_msg_sender
from .chainmodel import (DEFAULT_BLOCK_INTERVAL, DEFAULT_SYNC_PERIOD, U64, L1Chain, L2View, WallClock,
                         l2_view_l1_number_at)
from .gasmodel import GasParams, gas_fees
from .sequencer import ACTIVE, DIRECT_TO_SEQUENCER, DOWN, L2Tx, Sequencer, TxOrigin


class ScenarioError(ValueError):
    """Unknown scenario id or bad parameter."""


# What a runner returns: the L1 outcome, the L2 outcome and the divergence
# metrics; run_scenario adds the rest of the report from the spec.
Outcome = tuple[dict[str, Any], dict[str, Any], dict[str, float]]
# EVM words: times, block numbers and gas are 64-bit (U64), wei amounts 256-bit. As
# the (exclusive) tops of integer domains they keep every report integer printable.
_U256 = 2**256


class Param(FrozenRecord):
    """A scenario parameter's default and its domain: a range of ints, bool, Address
    (an address string) or a tuple of the allowed strings."""

    def __init__(self, default: Any, domain: Any):
        vars(self).update(default=default, domain=domain)

    def describe(self) -> str:
        """The domain in words, as `scenario list` and a rejection print it."""
        domain = self.domain
        if not isinstance(domain, range):
            words = {bool: "true or false", Address: "a 0x-prefixed 40-hex-digit address"}
            return words.get(domain) or "one of " + ", ".join(domain)
        top = f"2**{domain.stop.bit_length() - 1} - 1" if domain.stop in (U64, _U256) else f"{domain.stop - 1:,}"
        return f"an integer from {domain.start:,} to {top}"

    def parse(self, key: str, value: Any) -> Any:
        """The value as the declared type; ValueError naming key if it lies outside the domain."""
        domain = self.domain
        if isinstance(domain, range):
            try:
                value = int(value) if isinstance(value, str) else value
            except ValueError:
                pass
            inside = type(value) is int and value in domain
        elif domain is bool:
            if isinstance(value, str):
                value = {"true": True, "false": False}.get(value.lower(), value)
            inside = isinstance(value, bool)
        elif domain is Address:
            inside = isinstance(value, str) and HEX_ADDRESS_RE.match(value) is not None
        else:
            inside = isinstance(value, str) and value in domain
        if not inside:
            raise ValueError(f"parameter {key!r} must be {self.describe()}, got {value!r}")
        return value


class ScenarioSpec(FrozenRecord):
    # run is keyword-only, so not a field: == and repr leave it out
    def __init__(self, id: str, title: str, risk: str, params: Mapping[str, Param],
                 linked_rules: tuple[str, ...], narrative: str, *,
                 run: Callable[[dict[str, Any], int], Outcome]):
        vars(self).update(id=id, title=title, risk=risk, params=params,
                          linked_rules=linked_rules, narrative=narrative, run=run)


class DifferentialReport(Record):
    def __init__(self, scenario_id: str, seed: int, params: dict[str, Any],
                 l1_outcome: dict[str, Any], l2_outcome: dict[str, Any],
                 divergence: dict[str, float], narrative: str, linked_rules: list[str]):
        self.scenario_id, self.seed, self.params = scenario_id, seed, params
        self.l1_outcome, self.l2_outcome, self.divergence = l1_outcome, l2_outcome, divergence
        self.narrative, self.linked_rules = narrative, linked_rules

    @property
    def divergent(self) -> bool:
        return any(v != 0 for v in self.divergence.values())


# --- S1: stale oracle during sequencer downtime ----------------------------

# Steps are capped here, positions (1,000,000) in S1's declaration. A step keeps
# nothing once it has run, so this cap bounds time: in-process (2 CPUs, CPython
# 3.11.7) 1,000,001 steps took 4.4 s at 14 MB peak RSS. A position is one int in a
# sorted list; 1,000,000 positions over the default 121 steps took 1.2 s and 58 MB.
S1_MAX_STEPS = 10_000_000


def _run_stale_oracle(params: dict[str, Any], seed: int) -> Outcome:
    rng = random.Random(seed)
    interval = params["update_interval_s"]
    horizon = params["horizon_s"]
    down_start = params["down_start_s"]
    down_end = down_start + params["downtime_s"]
    if horizon // interval + 1 > S1_MAX_STEPS:
        raise ScenarioError(f"horizon_s // update_interval_s + 1 must be at most {S1_MAX_STEPS:,}")
    start_price = params["start_price_cents"]
    volatility = params["volatility_bp"]
    times = range(0, horizon + 1, interval)
    # The price path is drawn before the liquidation prices: skip its draws
    # here, then replay them from the saved state, one price per step.
    path_state = rng.getstate()
    for _ in times:
        rng.uniform(-volatility, volatility)

    # every position starts healthy: liquidation prices sit up to 10% below
    # the opening price and trigger when the market falls onto them
    liq_prices = sorted(
        rng.randint(start_price - start_price // 10, start_price - 1)
        for _ in range(params["positions"])
    )
    rng.setstate(path_state)

    seq = Sequencer()
    true_price = observed_price = start_price
    observed_at = 0
    max_staleness = 0
    # a position is liquidated once a chain's running minimum price reaches
    # it, so each chain's liquidated positions are the suffix from its start
    l1_start = l2_start = len(liq_prices)
    wrongful = 0
    monetary_delta = 0

    for step, t in enumerate(times):
        seq.status = DOWN if down_start <= t < down_end else ACTIVE
        # positional: a class called with keywords gathers them in a dict first
        seq.submit(L2Tx(f"price-update-{step}", t, DIRECT_TO_SEQUENCER, 0, (t, true_price)))
        for tx in seq.tick(t):
            produced_at, px = tx.payload
            if produced_at >= observed_at:
                observed_at, observed_price = produced_at, px

        max_staleness = max(max_staleness, t - observed_at)
        l1_hit = min(l1_start, bisect_left(liq_prices, true_price))
        l2_hit = min(l2_start, bisect_left(liq_prices, observed_price))
        if true_price != observed_price:
            # Positions hit on one chain only: the symmetric difference of the
            # new hits [l1_hit, l1_start) and [l2_hit, l2_start). They are
            # disjoint, as L2 observes an earlier true price, whose hits L1 took then.
            one_sided = l1_start - l1_hit + l2_start - l2_hit
            wrongful += one_sided
            monetary_delta += one_sided * abs(true_price - observed_price)
        l1_start, l2_start = l1_hit, l2_hit
        move = rng.uniform(-volatility, volatility) / 10_000
        true_price = max(1, round(true_price * (1 + move)))

    l1 = {"liquidated_positions": len(liq_prices) - l1_start, "price_staleness_s": 0}
    l2 = {"liquidated_positions": len(liq_prices) - l2_start, "price_staleness_s": max_staleness}
    return l1, l2, {
        "max_price_staleness_s": max_staleness,
        "wrongful_liquidation_events": wrongful,
        "monetary_delta_cents": monetary_delta,
    }


_S1 = ScenarioSpec(
    id="S1",
    title="stale-oracle",
    risk="outdated off-chain data while the sequencer is down",
    params={
        "downtime_s": Param(3600, range(0, U64)),
        "down_start_s": Param(600, range(0, U64)),
        "horizon_s": Param(7200, range(1, U64)),
        "update_interval_s": Param(60, range(1, U64)),
        "positions": Param(8, range(0, 1_000_001)),
        # a step moves the price at most 100%, with no drift: odds it passes 1.8e308 <= start / 1.8e308
        "start_price_cents": Param(10_000, range(10, 10**12 + 1)),
        "volatility_bp": Param(200, range(0, 10_001)),
    },
    linked_rules=("ARB-SEQ-001",),
    narrative=(
        "A lending book watches an off-chain price feed. On L1 every "
        "update lands immediately; on L2 the updates flow through the "
        "sequencer, so during the outage the book keeps trading against "
        "the last pre-outage price and liquidation decisions drift from "
        "the true market."
    ),
    run=_run_stale_oracle,
)


# --- S2: strict block-number equality ---------------------------------------


def _run_block_number_equality(params: dict[str, Any], seed: int) -> Outcome:
    chain = L1Chain(
        genesis_number=params["genesis_number"],
        block_interval=params["block_interval_s"],
    )
    view = L2View(sync_period=params["sync_period_s"])
    horizon = params["horizon_s"]

    # Counted over the seconds [0, horizon) without visiting them. L1 mints
    # one number per block interval started in that range. The L2 view
    # refreshes at each multiple of sync_period in it, and each refresh shows
    # a distinct, produced number (sync_period is a multiple of
    # block_interval, which the one call below checks), so the observable
    # numbers are exactly the refreshes.
    l2_view_l1_number_at(WallClock(0), chain, view)
    produced = (horizon - 1) // chain.block_interval + 1
    observable = (horizon - 1) // view.sync_period + 1

    fraction = observable / produced
    l1 = {"distinct_numbers": produced, "observable_fraction": 1.0}
    l2 = {"distinct_numbers": observable, "observable_fraction": fraction}
    return l1, l2, {"unobservable_fraction": 1.0 - fraction}


_S2 = ScenarioSpec(
    id="S2",
    title="block-number-equality",
    risk="block-number equality checks that can never fire on L2",
    params={
        "block_interval_s": Param(DEFAULT_BLOCK_INTERVAL, range(1, U64)),
        "sync_period_s": Param(DEFAULT_SYNC_PERIOD, range(1, U64)),
        "horizon_s": Param(3600, range(1, U64)),
        "genesis_number": Param(1000, range(0, U64)),
    },
    linked_rules=("ARB-TIME-001", "ARB-TIME-002"),
    narrative=(
        "A condition like `block.number == N` sees every block number on "
        "L1, but the L2 view refreshes only at sync instants, so most "
        "numbers are simply never observable there and the equality can "
        "never fire for them."
    ),
    run=_run_block_number_equality,
)


# --- S3: alias-unaware permission check --------------------------------------


def _run_alias_permission(params: dict[str, Any], seed: int) -> Outcome:
    owner = Address.from_hex(params["l1_sender"])
    offset = Address.from_hex(params["offset"])
    l2_sender = l2_msg_sender(owner, SenderKind(params["sender_kind"]), offset)
    raw_check_l2 = "allow" if l2_sender == owner else "deny"
    alias_aware_l2 = "allow" if l2_sender == apply_alias(owner, offset) else "deny"
    raw_check_l1 = "allow"  # on L1 the caller is its own address

    l1 = {"raw_check": raw_check_l1, "observed_sender": owner.hex()}
    l2 = {
        "raw_check": raw_check_l2,
        "alias_aware_check": alias_aware_l2,
        "observed_sender": l2_sender.hex(),
    }
    return l1, l2, {"raw_check_mismatch": 1 if raw_check_l1 != raw_check_l2 else 0}


_S3 = ScenarioSpec(
    id="S3",
    title="alias-permission",
    risk="permission checks that ignore L1-to-L2 address aliasing",
    params={
        "l1_sender": Param("0x00000000000000000000000000000000deadbeef", Address),
        "sender_kind": Param("contract", tuple(kind.value for kind in SenderKind)),
        "offset": Param(ALIAS_OFFSET.hex(), Address),
    },
    linked_rules=("ARB-ALIAS-001",),
    narrative=(
        "An owner-gated function authorizes the L1 contract directly on "
        "L1, but the same message arriving on L2 carries the aliased "
        "sender: the raw `msg.sender == owner` check denies the rightful "
        "owner, while an alias-aware check accepts it."
    ),
    run=_run_alias_permission,
)


# --- S4: unbounded refund loop ------------------------------------------------


def _run_dos_refund_loop(params: dict[str, Any], seed: int) -> Outcome:
    limit = params["block_gas_limit"]
    base = params["base_gas"]
    per = params["per_iteration_gas"]
    if base > limit:
        raise ScenarioError("base_gas already exceeds block_gas_limit")

    # smallest n with base + n * per > limit
    first_failing_n = (limit - base) // per + 1
    max_safe_n = first_failing_n - 1

    l1_push_cost = params["push_gas"] * params["l1_gas_price_wei"]
    l2_push_cost = gas_fees(
        GasParams(
            gas_used_l2=params["push_gas"],
            calldata_price_l1=params["calldata_price_l1_wei"],
            calldata_size_l1=params["push_calldata_bytes"],
            gas_price_l2=params["l2_gas_price_wei"],
        )
    )
    l1_attack_cost = first_failing_n * l1_push_cost
    l2_attack_cost = first_failing_n * l2_push_cost

    loop = {"first_failing_n": first_failing_n, "max_safe_n": max_safe_n}
    l1 = {**loop, "attack_cost_wei": l1_attack_cost}
    l2 = {**loop, "attack_cost_wei": l2_attack_cost}
    return l1, l2, {"attack_cost_delta_wei": l1_attack_cost - l2_attack_cost}


_S4 = ScenarioSpec(
    id="S4",
    title="dos-refund-loop",
    risk="unbounded loops that cheap L2 fees make attackable",
    params={
        "block_gas_limit": Param(30_000_000, range(0, U64)),
        "base_gas": Param(50_000, range(0, U64)),
        "per_iteration_gas": Param(40_000, range(1, U64)),
        "push_gas": Param(50_000, range(0, U64)),
        "push_calldata_bytes": Param(68, range(0, U64)),
        "l1_gas_price_wei": Param(20_000_000_000, range(0, _U256)),
        "l2_gas_price_wei": Param(100_000_000, range(1, _U256)),
        "calldata_price_l1_wei": Param(320_000_000_000, range(0, _U256)),
    },
    linked_rules=("ARB-DOS-001", "ARB-DOS-002"),
    narrative=(
        "A refund loop over a growable participant list dies once "
        "base + N * per-iteration gas passes the block gas limit. The "
        "loop math is identical on both chains; what differs is the "
        "price of pushing entries, which is cheap enough on L2 to make "
        "inflating the array to the failure point an affordable attack."
    ),
    run=_run_dos_refund_loop,
)


# --- S5: retryable ticket fee paths -------------------------------------------


def _run_retryable_fee_paths(params: dict[str, Any], seed: int) -> Outcome:
    if params["auto_fail_gas_required"] <= params["l2_gas_provided"]:
        raise ScenarioError("auto_fail_gas_required must exceed l2_gas_provided")
    # Each path is an event script on one ticket; replay_events checks its ledger.
    funds = params["submission_fee"] + params["l2_gas_provided"] + params["callvalue"]
    create = {"at": 0, "action": "create_ticket", "id": "t", "funds_provided": funds,
              "required": funds, "submission_fee": params["submission_fee"],
              "l2_gas_provided": params["l2_gas_provided"], "callvalue": params["callvalue"],
              "escrow_callvalue": params["escrow_callvalue"]}

    def redeem(gas: int) -> dict[str, Any]:
        return {"at": 60, "action": "auto_redeem", "id": "t", "l2_gas_required": gas}

    failed = redeem(params["auto_fail_gas_required"])
    success, manual, expiry = (replay_events([create, *path])["ledger"] for path in (
        [redeem(params["auto_gas_required"])],
        [failed, {"at": 3 * 86_400, "action": "manual_redeem", "id": "t",
                  "new_submission_fee": params["manual_submission_fee"],
                  "l2_gas": params["manual_l2_gas"]}],
        [failed, {"at": retryable.BUFFER_LIFETIME, "action": "expire_tickets"}],
    ))

    l1 = {"fees": params["l1_direct_fee"], "delivered": params["callvalue"], "lost": 0}
    l2 = {"auto_success": success, "auto_fail_manual": manual, "auto_fail_expiry": expiry}
    return l1, l2, {
        "extra_fees_auto_vs_l1": success["consumed_as_fees"] - params["l1_direct_fee"],
        "extra_fees_manual_vs_auto": manual["consumed_as_fees"] - success["consumed_as_fees"],
        "value_lost_on_expiry": expiry["lost"],
    }


_S5 = ScenarioSpec(
    id="S5",
    title="retryable-fee-paths",
    risk="repeated submission fees and expiry losses on L1-to-L2 tickets",
    params={
        "submission_fee": Param(1_000, range(0, _U256)),
        "l2_gas_provided": Param(5_000, range(0, U64)),
        "auto_gas_required": Param(3_000, range(0, U64)),
        "auto_fail_gas_required": Param(6_000, range(1, U64)),
        "callvalue": Param(100_000, range(0, _U256)),
        "manual_submission_fee": Param(1_000, range(0, _U256)),
        "manual_l2_gas": Param(3_000, range(0, U64)),
        "l1_direct_fee": Param(3_000, range(0, _U256)),
        "escrow_callvalue": Param(False, bool),
    },
    linked_rules=(),
    narrative=(
        "The same value transfer costs one fee on L1. Via a retryable "
        "ticket it can take three shapes: auto-redeem success refunds "
        "the submission fee, a failed auto-redeem charges it and a "
        "manual redeem pays it again plus fresh gas, and letting the "
        "buffered ticket expire after a week forfeits the carried value "
        "unless it was escrowed."
    ),
    run=_run_retryable_fee_paths,
)


# --- registry / dispatch -------------------------------------------------------


_SCENARIOS: tuple[ScenarioSpec, ...] = (_S1, _S2, _S3, _S4, _S5)

_SCENARIOS_BY_ID = {spec.id: spec for spec in _SCENARIOS}


def list_scenarios() -> list[ScenarioSpec]:
    return list(_SCENARIOS)


def run_scenario(
    scenario_id: str,
    params: Mapping[str, Any] | None = None,
    seed: int = 0,
) -> DifferentialReport:
    """Run one built-in scenario with overridden parameters."""
    if scenario_id not in _SCENARIOS_BY_ID:
        raise ScenarioError(f"unknown scenario {scenario_id!r}; valid ids: {', '.join(_SCENARIOS_BY_ID)}")
    spec = _SCENARIOS_BY_ID[scenario_id]
    merged = {key: declared.default for key, declared in spec.params.items()}
    try:
        for key, value in (params or {}).items():
            if key not in merged:
                raise ValueError(f"unknown parameter {key!r}; valid: {', '.join(sorted(merged))}")
            merged[key] = spec.params[key].parse(key, value)
        outcome = spec.run(merged, seed)
    except ValueError as exc:  # a declared domain, a runner or a simulator rejected a value
        raise ScenarioError(f"scenario {scenario_id}: {exc}") from exc
    return DifferentialReport(spec.id, seed, merged, *outcome, spec.narrative, list(spec.linked_rules))


def serialize_report(report: DifferentialReport) -> str:
    """Canonical JSON: sorted keys, LF line endings, trailing newline."""
    doc = {**report._asdict(), "divergent": report.divergent}
    return dump_json(doc) + "\n"


# --- event-record replay ---------------------------------------------------
#
# Custom simulations are driven by ordered event records rather than a
# scripting language.  Each record is {"at": seconds, "action": ..., **args},
# and a key its action does not read is ignored (gas_limit and refund_address
# among them, which old scripts still carry):
#
#   sequencer_down / sequencer_up
#   submit_tx      {id, origin?: direct_to_sequencer|delayed_inbox,
#                   gas_price?, underpriced?}
#   tick
#   create_ticket  {id, funds_provided, required, submission_fee,
#                   l2_gas_provided, callvalue, l1_gas_spent?,
#                   escrow_callvalue?}
#   auto_redeem    {id, l2_gas_required}
#   manual_redeem  {id, new_submission_fee, l2_gas}
#   expire_tickets


class EventScriptError(ValueError):
    """Malformed event record."""


# value -> member, so a submit reads its origin without calling the enum
_ORIGINS = {origin.value: origin for origin in TxOrigin}


# replay_events checks a field inline when its value is exactly an int, True or False,
# and calls these for any other value.
def _integer(key: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EventScriptError(f"field {key!r} expects an integer, got {value!r}")
    return value


def _boolean(key: str, value: Any) -> NoReturn:  # for a value that is neither True nor False
    raise EventScriptError(f"field {key!r} expects a boolean, got {value!r}")


# create_ticket's required amounts, in its parameter order
_TICKET_AMOUNTS = ("funds_provided", "required", "submission_fee", "l2_gas_provided", "callvalue")


def replay_events(events: list[Mapping[str, Any]]) -> dict[str, Any]:
    """Run an ordered event script against fresh simulator state.

    Returns a summary: executed transactions (with execution time, gas price
    and underpricing), final queue contents, ticket states, and
    the fee ledger, whose identity is checked once at the end
    (``AssertionError`` if it fails).  A transaction's summary row is built
    when its tick runs: besides what a ``tick`` or ``expire_tickets`` record
    pops, each record costs constant time.  A malformed record, or one that
    is not an object, raises :class:`EventScriptError` naming its index.
    """
    seq = Sequencer()
    submitted: set[str] = set()  # the sequencer takes unique ids only
    executed: list[dict[str, Any]] = []  # summary rows, in execution order
    staleness = 0  # the largest executed_at - submit_time so far
    ledger = retryable.FeeLedger()
    tickets: dict[str, retryable.Ticket] = {}
    created: dict[str, int] = {}  # ticket id -> creation order, reverted ones too
    # (deadline, creation order, ticket) of every ticket auto_redeem buffered
    buffered: list[tuple[int, int, retryable.Ticket]] = []
    last_at = 0
    # bound per call, not at import, so that wrappers set on Sequencer or in retryable
    # (bench/tracer.py times each layer so) are the ones bound
    submit, tick = seq.submit, seq.tick
    create_ticket, auto_redeem = retryable.create_ticket, retryable.auto_redeem
    manual_redeem, expire_tickets = retryable.manual_redeem, retryable.expire_tickets

    def ticket(event: Mapping[str, Any]) -> retryable.Ticket:
        ticket_id = str(event["id"])
        if ticket_id not in tickets:
            raise EventScriptError(f"unknown ticket id {ticket_id!r}")
        return tickets[ticket_id]

    for index, event in enumerate(events):
        try:
            if event.__class__ is not dict and not isinstance(event, Mapping):
                raise EventScriptError(f"must be an object, got {event!r}")
            if "at" not in event or "action" not in event:
                raise EventScriptError("must have 'at' and 'action'")
            if (at := event["at"]).__class__ is not int:
                at = _integer("at", at)
            action = event["action"]
            if at < last_at:
                raise EventScriptError(f"at {at} precedes {last_at}")
            last_at = at

            # most frequent actions first
            if action == "submit_tx":
                tx_id = str(event["id"])
                if tx_id in submitted:
                    raise EventScriptError(f"transaction id {tx_id!r} already submitted")
                origin = event.get("origin", "direct_to_sequencer")
                # TxOrigin converts or rejects whatever the table does not hold
                origin = origin.__class__ is str and _ORIGINS.get(origin) or TxOrigin(origin)
                if (gas_price := event.get("gas_price", 0)).__class__ is not int:
                    gas_price = _integer("gas_price", gas_price)
                if (underpriced := event.get("underpriced", False)) is not True and underpriced is not False:
                    _boolean("underpriced", underpriced)
                # positional: a class called with keywords gathers them in a dict first
                submit(L2Tx(tx_id, at, origin, gas_price, None, underpriced))
                submitted.add(tx_id)
            elif action == "tick":
                for tx in tick(at):
                    submit_time = tx.submit_time
                    # keys in sorted order, which json.dumps(sort_keys=True) sorts in one pass
                    executed.append({"executed_at": at, "gas_price": tx.gas_price, "id": tx.id,
                                     "origin": tx.origin._value_, "submit_time": submit_time,
                                     "underpriced": tx.underpriced})
                    if at - submit_time > staleness:
                        staleness = at - submit_time
            elif action == "create_ticket":
                ticket_id = str(event["id"])
                if ticket_id in created:
                    raise EventScriptError(f"duplicate ticket id {ticket_id!r}")
                created[ticket_id] = len(created)
                # a plain loop: on 3.11 a comprehension runs in a frame of its own
                amounts = []
                for key in _TICKET_AMOUNTS:
                    if (amount := event[key]).__class__ is not int:
                        amount = _integer(key, amount)
                    amounts.append(amount)
                if (l1_gas_spent := event.get("l1_gas_spent", 0)).__class__ is not int:
                    l1_gas_spent = _integer("l1_gas_spent", l1_gas_spent)
                if (escrow := event.get("escrow_callvalue", True)) is not True and escrow is not False:
                    _boolean("escrow_callvalue", escrow)
                try:
                    tickets[ticket_id] = create_ticket(ledger, ticket_id, at, *amounts, l1_gas_spent, escrow)
                except retryable.TicketRevert:
                    pass  # a reverted ticket is in created but not in tickets
            elif action == "auto_redeem":
                t = ticket(event)
                if (gas := event["l2_gas_required"]).__class__ is not int:
                    gas = _integer("l2_gas_required", gas)
                if not auto_redeem(t, ledger, gas, now=at):
                    heapq.heappush(buffered, (t.deadline(), created[t.id], t))
            elif action == "manual_redeem":
                manual_redeem(
                    ticket(event),
                    ledger,
                    v if (v := event["new_submission_fee"]).__class__ is int else _integer("new_submission_fee", v),
                    v if (v := event["l2_gas"]).__class__ is int else _integer("l2_gas", v),
                    now=at,
                )
            elif action == "expire_tickets":
                # Deadlines grow with creation order, so this pops in creation
                # order; expire_tickets skips the ones manually redeemed since.
                due = []
                while buffered and buffered[0][0] <= at:
                    due.append(heapq.heappop(buffered)[2])
                expire_tickets(due, ledger, now=at)
            elif action == "sequencer_down":
                seq.status = DOWN
            elif action == "sequencer_up":
                seq.status = ACTIVE
            else:
                raise EventScriptError(f"unknown action {action!r}")
        except EventScriptError as exc:
            raise EventScriptError(f"event {index}: {exc}") from None
        except KeyError as exc:
            raise EventScriptError(f"event {index}: missing field {exc}") from None
        except (TypeError, ValueError, retryable.TicketStateError) as exc:
            raise EventScriptError(f"event {index}: {exc}") from exc

    ledger.assert_balanced()
    return {
        "executed": executed,
        "pending": [tx.id for tx in seq.pending],
        "delayed_inbox": list(seq.delayed_inbox),
        "max_staleness_s": staleness,
        "tickets": {tid: t.state._value_ for tid, t in sorted(tickets.items())},
        "reverted_tickets": sorted(created.keys() - tickets.keys()),
        "ledger": ledger._asdict(),
    }
