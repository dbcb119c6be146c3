import json
import random
import re
import tracemalloc
from pathlib import Path
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arbmigrate import retryable
from arbmigrate.chainmodel import L1Chain, L2View, WallClock, l1_block_number_at, l2_view_l1_number_at
from arbmigrate.minisol import parse_source
from arbmigrate.rules import RULES, analyze
from arbmigrate.scenarios import (
    S1_MAX_STEPS,
    DifferentialReport,
    EventScriptError,
    Outcome,
    ScenarioError,
    list_scenarios,
    run_scenario,
    serialize_report,
)
from arbmigrate.sequencer import L2Tx, Sequencer, SequencerStatus, TxOrigin

README = Path(__file__).parents[1] / "README.md"
CORPUS = Path(__file__).parent / "corpus"

# One setting per linked scenario at which it does not diverge.
_CONVERGENT = {
    "S1": {"downtime_s": 0},
    "S2": {"block_interval_s": 60},
    "S3": {"sender_kind": "externally_owned"},
    "S4": {"push_calldata_bytes": 0, "l2_gas_price_wei": 20_000_000_000},
}


def test_every_rule_is_tied_to_its_corpus_twins_and_to_scenarios_that_can_go_either_way():
    labels = json.loads((CORPUS / "labels.json").read_text(encoding="utf-8"))
    dirty_twin = {item["rule_id"]: name for name, items in labels.items() for item in items}
    linked: dict[str, list[str]] = {}
    for spec in list_scenarios():
        for rule_id in spec.linked_rules:
            linked.setdefault(rule_id, []).append(spec.id)

    def fired(name):
        return {f.rule_id for f in analyze(parse_source((CORPUS / name).read_text(encoding="utf-8")))}

    for rule in RULES:
        dirty = dirty_twin[rule.id]
        assert rule.id in fired(dirty), dirty
        assert rule.id not in fired(dirty.replace("_dirty", "_clean")), dirty
        for sid in linked.get(rule.id, ()):
            assert run_scenario(sid).divergent, sid
            assert not run_scenario(sid, _CONVERGENT[sid]).divergent, sid
    # a rule with no scenario to show its risk; adding S6 for it changes this
    assert {rule.id for rule in RULES} - linked.keys() == {"ARB-TIME-003"}


class TestCatalog:
    def test_exactly_the_five_builtins_in_stable_order(self):
        specs = list_scenarios()
        assert [s.id for s in specs] == ["S1", "S2", "S3", "S4", "S5"]
        assert list_scenarios() == specs

    def test_readme_scenario_table_matches_catalog(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("| id | name "))
        rows = []
        for line in lines[header + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")][:2])
        assert rows == [[spec.id, spec.title] for spec in list_scenarios()]

    def test_each_entry_documents_its_risk_and_params(self):
        for spec in list_scenarios():
            assert spec.risk
            assert spec.params

    def test_unknown_id_error_lists_valid_ids(self):
        with pytest.raises(ScenarioError, match="S1, S2, S3, S4, S5"):
            run_scenario("S9")

    def test_unknown_param_rejected_with_valid_list(self):
        with pytest.raises(ScenarioError, match="downtime_s"):
            run_scenario("S1", {"downtime": 5})

    def test_bad_param_value_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("S1", {"downtime_s": "soon"})

    @pytest.mark.parametrize("key, value, domain", [
        ("horizon_s", float("inf"), "an integer from 1 to 2**64 - 1"),
        ("positions", True, "an integer from 0 to 1,000,000"),
        ("positions", 1.9, "an integer from 0 to 1,000,000"),
        ("positions", "1.9", "an integer from 0 to 1,000,000"),
    ], ids=["infinity", "bool", "float", "float-string"])
    def test_integer_parameter_takes_no_other_type(self, key, value, domain):
        with pytest.raises(ScenarioError) as exc:
            run_scenario("S1", {key: value})
        assert str(exc.value) == f"scenario S1: parameter {key!r} must be {domain}, got {value!r}"

    @pytest.mark.parametrize("sid, key, value, domain", [
        ("S3", "sender_kind", "eoa", "one of externally_owned, contract"),
        ("S3", "sender_kind", "CONTRACT", "one of externally_owned, contract"),
        ("S3", "l1_sender", 5, "a 0x-prefixed 40-hex-digit address"),
        ("S3", "offset", "0x12", "a 0x-prefixed 40-hex-digit address"),
        ("S5", "escrow_callvalue", "yes", "true or false"),
        ("S5", "escrow_callvalue", 1, "true or false"),
    ])
    def test_other_parameter_kinds_take_only_their_domain(self, sid, key, value, domain):
        with pytest.raises(ScenarioError) as exc:
            run_scenario(sid, {key: value})
        assert str(exc.value) == f"scenario {sid}: parameter {key!r} must be {domain}, got {value!r}"

    def test_values_are_reported_as_given_with_their_declared_type(self):
        sender = "0x00000000000000000000000000000000DEADBEEF"
        params = run_scenario("S3", {"l1_sender": sender, "sender_kind": "externally_owned"}).params
        assert (params["l1_sender"], params["sender_kind"]) == (sender, "externally_owned")
        assert run_scenario("S5", {"escrow_callvalue": "TRUE"}).params["escrow_callvalue"] is True

    def test_every_parameter_declares_a_default_inside_its_domain(self):
        for spec in list_scenarios():
            for key, declared in spec.params.items():
                assert declared.parse(key, declared.default) == declared.default

    def test_integer_parameter_takes_ints_and_integer_strings(self):
        params = run_scenario("S1", {"positions": 3, "downtime_s": "1800", "horizon_s": " 7200 "}).params
        assert (params["positions"], params["downtime_s"], params["horizon_s"]) == (3, 1800, 7200)


class TestSerialization:
    def test_serialize_twice_is_byte_identical(self):
        a = serialize_report(run_scenario("S2"))
        b = serialize_report(run_scenario("S2"))
        assert a == b
        assert a.endswith("\n")
        assert "\r" not in a

    def test_round_trip_recovers_metrics(self):
        report = run_scenario("S4")
        doc = json.loads(serialize_report(report))
        assert doc["divergence"] == report.divergence
        assert doc["l2_outcome"] == report.l2_outcome
        assert doc["scenario_id"] == "S4"

    def test_divergent_flag_false_iff_metrics_zero(self):
        quiet = run_scenario("S1", {"downtime_s": 0})
        assert not quiet.divergent
        doc = json.loads(serialize_report(quiet))
        assert doc["divergent"] is False
        loud = run_scenario("S2")
        assert loud.divergent

    def test_fixed_inputs_fixed_bytes(self):
        first = serialize_report(run_scenario("S1", {"downtime_s": 1800}, seed=5))
        second = serialize_report(run_scenario("S1", {"downtime_s": 1800}, seed=5))
        assert first == second


class TestStaleOracle:
    def test_zero_downtime_null_result(self):
        report = run_scenario("S1", {"downtime_s": 0})
        assert report.divergence == {
            "max_price_staleness_s": 0,
            "wrongful_liquidation_events": 0,
            "monetary_delta_cents": 0,
        }

    def test_staleness_covers_the_outage(self):
        report = run_scenario("S1")
        assert report.divergence["max_price_staleness_s"] >= 3600

    def test_falling_market_during_outage_diverges(self):
        report = run_scenario("S1", seed=1)
        assert report.divergence["wrongful_liquidation_events"] > 0
        assert report.divergence["monetary_delta_cents"] > 0
        assert report.l1_outcome["liquidated_positions"] > report.l2_outcome["liquidated_positions"]

    def test_links_the_staleness_rule(self):
        assert run_scenario("S1").linked_rules == ["ARB-SEQ-001"]

    def test_memory_grows_by_less_than_16_bytes_per_step(self):
        # A step keeps nothing once it has run, not even its transaction id,
        # so memory stays flat. No outage, so no delayed-inbox backlog sits in
        # either peak.
        def peak(horizon):
            tracemalloc.start()
            try:
                run_scenario("S1", {"horizon_s": horizon, "update_interval_s": 1,
                                    "positions": 1, "downtime_s": 0})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(9_000) - peak(1_000)) / 8_000 < 16

    def test_many_steps_with_many_positions_run(self):
        # 12,001 steps x 1,000 positions, above the old bound on their product
        report = run_scenario("S1", {"horizon_s": 12_000, "update_interval_s": 1, "positions": 1_000})
        assert report.l1_outcome["liquidated_positions"] <= 1_000

    def test_steps_are_capped(self):
        # each one step past the cap; the check runs before any draw
        with pytest.raises(ScenarioError, match="update_interval_s \\+ 1 must be at most 10,000,000"):
            run_scenario("S1", {"horizon_s": S1_MAX_STEPS * 60})
        with pytest.raises(ScenarioError, match="must be at most 10,000,000"):
            run_scenario("S1", {"horizon_s": S1_MAX_STEPS, "update_interval_s": 1, "positions": 1})

    @pytest.mark.parametrize("name, domain", [
        ("positions", "an integer from 0 to 1,000,000"), ("downtime_s", "an integer from 0 to 2**64 - 1"),
        ("down_start_s", "an integer from 0 to 2**64 - 1"), ("volatility_bp", "an integer from 0 to 10,000"),
    ], ids=["positions", "downtime_s", "down_start_s", "volatility_bp"])
    def test_negative_values_are_rejected(self, name, domain):
        message = f"scenario S1: parameter '{name}' must be {domain}, got -1"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            run_scenario("S1", {name: -1})

    def test_positions_are_capped_on_their_own(self):
        message = "parameter 'positions' must be an integer from 0 to 1,000,000, got 1000001"
        with pytest.raises(ScenarioError, match=message):
            run_scenario("S1", {"positions": 1_000_001, "horizon_s": 60})

    @pytest.mark.parametrize("params, key", [
        ({"start_price_cents": 10**309}, "start_price_cents"),
        ({"volatility_bp": 10**35, "horizon_s": 60_000}, "volatility_bp"),
    ], ids=["price-1e309", "volatility-1e35"])
    def test_values_that_overflowed_a_float_are_out_of_domain(self, params, key):
        with pytest.raises(ScenarioError, match=f"^scenario S1: parameter '{key}' must be an integer from "):
            run_scenario("S1", params)

    def test_largest_price_and_volatility_run(self):
        report = run_scenario("S1", {"start_price_cents": 10**12, "volatility_bp": 10_000, "horizon_s": 60_000})
        assert report.params["start_price_cents"] == 10**12


_U64, _U256 = 2**64 - 1, 2**256 - 1
_TOP_TEXT = {_U64: "2**64 - 1", _U256: "2**256 - 1"}


def _check_ranges(params: dict[str, Any], ranges: dict[str, tuple[int, int]]) -> None:
    """The references' own domain check: the first of params, in order, outside its range."""
    for key, value in params.items():
        low, high = ranges[key]
        if not low <= value <= high:
            top = _TOP_TEXT.get(high) or f"{high:,}"
            raise ValueError(f"parameter {key!r} must be an integer from {low:,} to {top}, got {value}")


# The S1 runner before it streamed its prices and kept each chain's
# liquidations as the start of a sorted suffix: a list of every price, and
# every position checked at every step. It keeps the single bound on steps x
# positions of that time; the draws below stay far inside it.
_REFERENCE_MAX_STEP_POSITIONS = 10_000_000
_S1_RANGES = {"downtime_s": (0, _U64), "down_start_s": (0, _U64), "horizon_s": (1, _U64),
              "update_interval_s": (1, _U64), "positions": (0, 10**6),
              "start_price_cents": (10, 10**12), "volatility_bp": (0, 10_000)}


def _reference_stale_oracle(params: dict[str, Any], seed: int) -> Outcome:
    _check_ranges(params, _S1_RANGES)
    rng = random.Random(seed)
    interval = params["update_interval_s"]
    horizon = params["horizon_s"]
    down_start = params["down_start_s"]
    down_end = down_start + params["downtime_s"]
    start_price = params["start_price_cents"]
    if (horizon // interval + 1) * max(params["positions"], 1) > _REFERENCE_MAX_STEP_POSITIONS:
        raise ScenarioError("(horizon_s // update_interval_s + 1) x positions must be at most "
                            f"{_REFERENCE_MAX_STEP_POSITIONS:,}")
    times = list(range(0, horizon + 1, interval))
    prices: list[int] = []
    price = start_price
    for _ in times:
        prices.append(price)
        move = rng.uniform(-params["volatility_bp"], params["volatility_bp"]) / 10_000
        price = max(1, round(price * (1 + move)))

    # every position starts healthy: liquidation prices sit up to 10% below
    # the opening price and trigger when the market falls onto them
    liq_prices = sorted(
        rng.randint(start_price - start_price // 10, start_price - 1)
        for _ in range(params["positions"])
    )

    seq = Sequencer()
    observed_price = prices[0]
    observed_at = 0
    max_staleness = 0
    l1_liquidated: set[int] = set()
    l2_liquidated: set[int] = set()
    wrongful = 0
    monetary_delta = 0

    for step, t in enumerate(times):
        in_downtime = down_start <= t < down_end
        seq.set_status(SequencerStatus.DOWN if in_downtime else SequencerStatus.ACTIVE)
        seq.submit(
            L2Tx(
                id=f"price-update-{step}",
                submit_time=t,
                origin=TxOrigin.DIRECT_TO_SEQUENCER,
                payload=(t, prices[step]),
            )
        )
        for tx in seq.tick(t):
            produced_at, px = tx.payload
            if produced_at >= observed_at:
                observed_at, observed_price = produced_at, px

        max_staleness = max(max_staleness, t - observed_at)
        true_price = prices[step]
        for i, liq in enumerate(liq_prices):
            l1_hit = i not in l1_liquidated and true_price <= liq
            l2_hit = i not in l2_liquidated and observed_price <= liq
            if l1_hit:
                l1_liquidated.add(i)
            if l2_hit:
                l2_liquidated.add(i)
            if l1_hit != l2_hit and true_price != observed_price:
                wrongful += 1
                monetary_delta += abs(true_price - observed_price)

    l1 = {"liquidated_positions": len(l1_liquidated), "price_staleness_s": 0}
    l2 = {"liquidated_positions": len(l2_liquidated), "price_staleness_s": max_staleness}
    return l1, l2, {
        "max_price_staleness_s": max_staleness,
        "wrongful_liquidation_events": wrongful,
        "monetary_delta_cents": monetary_delta,
    }


@st.composite
def _s1_params(draw):
    """S1 parameters of up to 401 steps; intervals of 300 s and more reach past 86,400 s."""
    interval = draw(st.sampled_from([60, 1, 300, 7, 900, 2]))
    steps = draw(st.sampled_from([200, 60, 400, 10, 2, 1, 0]))
    horizon = max(1, steps * interval + draw(st.integers(0, interval - 1)))
    return {
        "downtime_s": draw(st.one_of(st.integers(0, horizon), st.integers(86_401, 400_000))),
        "down_start_s": draw(st.integers(0, horizon)),
        "horizon_s": horizon,
        "update_interval_s": interval,
        "positions": draw(st.sampled_from([13, 30, 5, 2, 1, 0])),
        "start_price_cents": draw(st.integers(10, 20_000)),
        "volatility_bp": draw(st.sampled_from([500, 200, 1_500, 10_000, 50, 1, 0])),
    }


def _s1(**changes):
    return {**{key: declared.default for key, declared in list_scenarios()[0].params.items()}, **changes}


@settings(max_examples=300, deadline=None)
@given(params=_s1_params(), seed=st.integers(0, 2**64))
@example(params=_s1(positions=0), seed=0)
@example(params=_s1(volatility_bp=0), seed=1)
@example(params=_s1(update_interval_s=1, volatility_bp=300, positions=20), seed=1)
@example(params=_s1(horizon_s=200_000, update_interval_s=300, down_start_s=0, downtime_s=150_000,
                    positions=20, volatility_bp=500), seed=3)
@example(params=_s1(update_interval_s=0), seed=0)
@example(params=_s1(horizon_s=0, positions=-1), seed=0)
@example(params=_s1(start_price_cents=9), seed=0)
@example(params=_s1(start_price_cents=10**12 + 1), seed=0)
@example(params=_s1(volatility_bp=10_001, downtime_s=-1), seed=0)
def test_stale_oracle_matches_the_per_position_reference(params, seed):
    outcome = _same_outcome("S1", params, lambda p: _reference_stale_oracle(p, seed), seed)
    if outcome is not None:
        expected, report = outcome
        assert (report.l1_outcome, report.l2_outcome, report.divergence) == expected


class TestBlockNumberEquality:
    def test_default_observable_fraction(self):
        report = run_scenario("S2")
        assert report.l2_outcome["observable_fraction"] == 0.25
        assert report.l1_outcome["observable_fraction"] == 1.0
        assert report.divergence["unobservable_fraction"] == 0.75

    def test_matches_brute_force_enumeration(self):
        report = run_scenario("S2")
        chain = L1Chain(genesis_number=1000, block_interval=15)
        view = L2View(sync_period=60)
        produced = set()
        seen = set()
        for t in range(3600):
            produced.add(l1_block_number_at(WallClock(t), chain))
            seen.add(l2_view_l1_number_at(WallClock(t), chain, view))
        assert report.l2_outcome["observable_fraction"] == len(seen & produced) / len(produced)

    @pytest.mark.parametrize("interval,sync", [(5, 10), (10, 60), (15, 30), (20, 60), (30, 30)])
    def test_fraction_equals_interval_over_sync_for_divisor_pairs(self, interval, sync):
        report = run_scenario(
            "S2", {"block_interval_s": interval, "sync_period_s": sync, "horizon_s": 3600}
        )
        assert report.l2_outcome["observable_fraction"] == pytest.approx(interval / sync)

    def test_no_lag_no_divergence(self):
        report = run_scenario("S2", {"block_interval_s": 15, "sync_period_s": 15})
        assert not report.divergent


def _s2_by_enumeration(params):
    """S2 as it was first written: one set entry per second of the horizon."""
    _check_ranges(params, {"block_interval_s": (1, _U64), "sync_period_s": (1, _U64),
                           "horizon_s": (1, _U64), "genesis_number": (0, _U64)})
    chain = L1Chain(genesis_number=params["genesis_number"], block_interval=params["block_interval_s"])
    view = L2View(sync_period=params["sync_period_s"])
    produced, observable = set(), set()
    for t in range(params["horizon_s"]):
        produced.add(l1_block_number_at(WallClock(t), chain))
        observable.add(l2_view_l1_number_at(WallClock(t), chain, view))
    fraction = len(observable & produced) / len(produced)
    return len(produced), len(observable), fraction


def _s4_by_counting(params):
    """S4's failure point as it was first written: count n up one at a time."""
    _check_ranges(params, {"block_gas_limit": (0, _U64), "base_gas": (0, _U64),
                           "per_iteration_gas": (1, _U64), "l1_gas_price_wei": (0, _U256)})
    limit, base, per = params["block_gas_limit"], params["base_gas"], params["per_iteration_gas"]
    if base > limit:
        raise ScenarioError("base_gas already exceeds block_gas_limit")
    n = 1
    while base + n * per <= limit:
        n += 1
    return n


def _same_outcome(sid, params, reference, seed=0):
    """run_scenario agrees with reference(params): the same values, or the same error."""
    try:
        expected = reference(params)
    except ValueError as exc:
        with pytest.raises(ScenarioError, match=re.escape(f"scenario {sid}: {exc}") + "$"):
            run_scenario(sid, params, seed)
        return None
    return expected, run_scenario(sid, params, seed)


class TestClosedFormsMatchTheLoops:
    @settings(max_examples=300, deadline=None)
    @given(
        interval=st.integers(-1, 7),
        sync=st.integers(-1, 45),
        horizon=st.integers(-2, 400),
        genesis=st.integers(-1, 60),
    )
    def test_s2_counts_equal_enumeration(self, interval, sync, horizon, genesis):
        params = {"block_interval_s": interval, "sync_period_s": sync,
                  "horizon_s": horizon, "genesis_number": genesis}
        outcome = _same_outcome("S2", params, _s2_by_enumeration)
        if outcome is not None:
            (produced, observable, fraction), report = outcome
            assert report.l1_outcome["distinct_numbers"] == produced
            assert report.l2_outcome["distinct_numbers"] == observable
            assert report.l2_outcome["observable_fraction"] == fraction
            assert report.divergence["unobservable_fraction"] == 1.0 - fraction

    def test_s2_sync_period_off_the_block_grid_still_rejected(self):
        params = {"block_interval_s": 15, "sync_period_s": 40, "horizon_s": 100, "genesis_number": 0}
        assert _same_outcome("S2", params, _s2_by_enumeration) is None

    @settings(max_examples=300, deadline=None)
    @given(
        limit=st.integers(-5, 3000),
        base=st.one_of(st.none(), st.integers(-5, 3000)),
        per=st.integers(-2, 60),
        l1_price=st.integers(-3, 30) | st.sampled_from([20_000_000_000, 2**256 - 1, 2**256]),
    )
    @example(limit=2**64 - 1, base=None, per=2**64 - 1, l1_price=2**256 - 1)
    @example(limit=2**64, base=0, per=1, l1_price=1)
    @example(limit=700, base=-5000, per=9, l1_price=1)
    @example(limit=700, base=701, per=9, l1_price=1)
    def test_s4_first_failing_n_equals_counting(self, limit, base, per, l1_price):
        params = {"block_gas_limit": limit, "base_gas": limit if base is None else base,
                  "per_iteration_gas": per, "l1_gas_price_wei": l1_price}
        outcome = _same_outcome("S4", params, _s4_by_counting)
        if outcome is not None:
            n, report = outcome
            for side in (report.l1_outcome, report.l2_outcome):
                assert side["first_failing_n"] == n
                assert side["max_safe_n"] == n - 1
            assert report.l1_outcome["attack_cost_wei"] == n * 50_000 * l1_price

    def test_s4_base_equal_to_limit_fails_at_one(self):
        params = {"block_gas_limit": 700, "base_gas": 700, "per_iteration_gas": 9}
        n, report = _same_outcome("S4", params, _s4_by_counting)
        assert n == report.l2_outcome["first_failing_n"] == 1


class TestAliasPermission:
    def test_outcome_pair_is_deny_then_allow(self):
        report = run_scenario("S3")
        assert report.l2_outcome["raw_check"] == "deny"
        assert report.l2_outcome["alias_aware_check"] == "allow"
        assert report.l1_outcome["raw_check"] == "allow"
        assert report.divergence["raw_check_mismatch"] == 1

    def test_externally_owned_sender_does_not_diverge(self):
        report = run_scenario("S3", {"sender_kind": "externally_owned"})
        assert report.l2_outcome["raw_check"] == "allow"
        assert not report.divergent

    @pytest.mark.parametrize("kind, alias_aware", [("contract", "allow"), ("externally_owned", "deny")])
    def test_alias_aware_check_allows_only_the_aliased_owner(self, kind, alias_aware):
        # the alias-aware check compares the L2 sender with the owner's alias:
        # a contract owner arrives aliased, an externally owned one does not
        report = run_scenario("S3", {"sender_kind": kind})
        assert report.l2_outcome["alias_aware_check"] == alias_aware

    def test_observed_sender_is_the_alias(self):
        report = run_scenario("S3")
        assert report.l2_outcome["observed_sender"] != report.l1_outcome["observed_sender"]


class TestDosRefundLoop:
    def test_default_first_failing_n(self):
        report = run_scenario("S4")
        assert report.l2_outcome["first_failing_n"] == 749
        assert report.l2_outcome["max_safe_n"] == 748

    @pytest.mark.parametrize(
        "limit,base,per",
        [(30_000_000, 50_000, 40_000), (30_000_000, 0, 7_000), (1_000_000, 999_999, 3), (15_000_000, 21_000, 55_000)],
    )
    def test_simulation_matches_closed_form(self, limit, base, per):
        report = run_scenario(
            "S4", {"block_gas_limit": limit, "base_gas": base, "per_iteration_gas": per}
        )
        assert report.l2_outcome["first_failing_n"] == (limit - base) // per + 1

    def test_attack_cheaper_on_l2(self):
        report = run_scenario("S4")
        assert report.l2_outcome["attack_cost_wei"] < report.l1_outcome["attack_cost_wei"]
        assert report.divergence["attack_cost_delta_wei"] > 0

    def test_base_gas_beyond_limit_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("S4", {"base_gas": 40_000_000})

    @pytest.mark.parametrize("name, domain", [
        ("l1_gas_price_wei", "an integer from 0 to 2**256 - 1"),
        ("base_gas", "an integer from 0 to 2**64 - 1"),
        ("block_gas_limit", "an integer from 0 to 2**64 - 1"),
    ])
    def test_negative_gas_and_prices_are_rejected(self, name, domain):
        message = f"scenario S4: parameter '{name}' must be {domain}, got -5"
        with pytest.raises(ScenarioError, match=re.escape(message) + "$"):
            run_scenario("S4", {name: -5})

    def test_largest_amounts_give_a_printable_report(self):
        # products of 4,000-digit inputs passed the 4,300-digit limit of int-to-text conversion
        report = run_scenario("S4", {"block_gas_limit": 2**64 - 1, "base_gas": 0, "per_iteration_gas": 1,
                                     "push_gas": 2**64 - 1, "l1_gas_price_wei": 2**256 - 1})
        assert json.loads(serialize_report(report))["l1_outcome"]["first_failing_n"] == 2**64


class TestRetryableFeePaths:
    def test_ledgers_balance_on_every_path(self):
        report = run_scenario("S5")
        for path in ("auto_success", "auto_fail_manual", "auto_fail_expiry"):
            ledger = report.l2_outcome[path]
            assert ledger["paid_in"] == (
                ledger["refunded"]
                + ledger["consumed_as_fees"]
                + ledger["delivered_callvalue"]
                + ledger["lost"]
            )

    def test_manual_path_pays_more_than_auto_success(self):
        report = run_scenario("S5")
        auto = report.l2_outcome["auto_success"]["consumed_as_fees"]
        manual = report.l2_outcome["auto_fail_manual"]["consumed_as_fees"]
        assert manual > auto
        assert report.divergence["extra_fees_manual_vs_auto"] == manual - auto

    def test_expiry_loses_the_carried_value(self):
        report = run_scenario("S5")
        assert report.divergence["value_lost_on_expiry"] == 100_000
        assert report.l2_outcome["auto_fail_expiry"]["delivered_callvalue"] == 0

    def test_escrowed_callvalue_survives(self):
        report = run_scenario("S5", {"escrow_callvalue": "true"})
        assert report.divergence["value_lost_on_expiry"] == 0
        assert report.l2_outcome["auto_fail_expiry"]["refunded"] >= 100_000

    def test_fail_gas_equal_to_the_gas_provided_is_rejected(self):
        message = "^scenario S5: auto_fail_gas_required must exceed l2_gas_provided$"
        with pytest.raises(ScenarioError, match=message):
            run_scenario("S5", {"auto_fail_gas_required": 5_000})

    def test_negative_direct_fee_is_rejected(self):
        message = "scenario S5: parameter 'l1_direct_fee' must be an integer from 0 to 2**256 - 1, got -1"
        with pytest.raises(ScenarioError, match=re.escape(message) + "$"):
            run_scenario("S5", {"l1_direct_fee": -1})

    def test_callvalue_delivered_on_both_redeem_paths(self):
        report = run_scenario("S5")
        assert report.l2_outcome["auto_success"]["delivered_callvalue"] == 100_000
        assert report.l2_outcome["auto_fail_manual"]["delivered_callvalue"] == 100_000


_TICKET = {"at": 0, "action": "create_ticket", "id": "t", "funds_provided": 30,
           "required": 30, "submission_fee": 10, "l2_gas_provided": 10, "callvalue": 10}


class TestEventReplay:
    def test_downtime_script_reproduces_recovery_ordering(self):
        from arbmigrate.scenarios import replay_events

        summary = replay_events([
            {"at": 0, "action": "sequencer_down"},
            {"at": 10, "action": "submit_tx", "id": "a"},
            {"at": 20, "action": "submit_tx", "id": "b"},
            {"at": 3600, "action": "sequencer_up"},
            {"at": 3601, "action": "submit_tx", "id": "c"},
            {"at": 3602, "action": "tick"},
        ])
        assert [e["id"] for e in summary["executed"]] == ["a", "b", "c"]
        assert summary["max_staleness_s"] == 3592
        assert summary["pending"] == [] and summary["delayed_inbox"] == []

    def test_duplicate_id_rejected_and_state_unchanged(self, monkeypatch):
        # the sequencer keeps no ids, so replay rejects a repeated one before
        # the sequencer takes it in, also after the first one has executed
        from arbmigrate.scenarios import replay_events

        taken, submit = [], Sequencer.submit

        def spy(seq, tx):
            taken.append(tx.id)
            submit(seq, tx)

        monkeypatch.setattr(Sequencer, "submit", spy)
        with pytest.raises(EventScriptError, match="^event 2: transaction id 'a' already submitted$"):
            replay_events([
                {"at": 10, "action": "submit_tx", "id": "a"},
                {"at": 10, "action": "tick"},
                {"at": 20, "action": "submit_tx", "id": "a"},
            ])
        assert taken == ["a"]

    def test_ticket_lifecycle_script(self):
        from arbmigrate.scenarios import replay_events

        summary = replay_events([
            {"at": 0, "action": "create_ticket", "id": "t1", "funds_provided": 600,
             "required": 600, "submission_fee": 100, "l2_gas_provided": 200,
             "callvalue": 300},
            {"at": 0, "action": "create_ticket", "id": "t2", "funds_provided": 10,
             "required": 999, "submission_fee": 1, "l2_gas_provided": 1,
             "callvalue": 1, "l1_gas_spent": 50},
            {"at": 5, "action": "auto_redeem", "id": "t1", "l2_gas_required": 999},
            {"at": 200, "action": "manual_redeem", "id": "t1",
             "new_submission_fee": 100, "l2_gas": 150},
        ])
        assert summary["tickets"]["t1"] == "manually_redeemed"
        assert summary["reverted_tickets"] == ["t2"]
        ledger = summary["ledger"]
        assert ledger["paid_in"] == sum(
            ledger[k] for k in ("refunded", "consumed_as_fees", "delivered_callvalue", "lost")
        )
        assert ledger["lost"] == 50

    def test_underpriced_gas_params_surface_in_summary(self):
        from arbmigrate.scenarios import replay_events

        summary = replay_events([
            {"at": 0, "action": "sequencer_down"},
            {"at": 0, "action": "submit_tx", "id": "cheap",
             "origin": "delayed_inbox", "gas_price": 1, "underpriced": True},
            {"at": 90_000, "action": "tick"},
        ])
        # past the force-inclusion delay, but underpriced txs stay excluded
        assert summary["delayed_inbox"] == ["cheap"]
        assert summary["executed"] == []

    def test_script_errors(self):
        from arbmigrate.scenarios import EventScriptError, replay_events

        with pytest.raises(EventScriptError, match="unknown action"):
            replay_events([{"at": 0, "action": "explode"}])
        with pytest.raises(EventScriptError, match="precedes"):
            replay_events([
                {"at": 10, "action": "tick"},
                {"at": 5, "action": "tick"},
            ])
        with pytest.raises(EventScriptError, match="'at'"):
            replay_events([{"action": "tick"}])

    @pytest.mark.parametrize(
        "events, message",
        [
            ([{"at": 0, "action": "auto_redeem", "id": "nope", "l2_gas_required": 1}],
             "event 0: unknown ticket id 'nope'"),
            ([{"at": 0, "action": "tick"}, {"at": 1, "action": "submit_tx"}],
             "event 1: missing field 'id'"),
            ([{"at": 0, "action": "submit_tx", "id": "a", "origin": "moon"}],
             "event 0: 'moon' is not a valid TxOrigin"),
            ([{"at": 0, "action": "submit_tx", "id": "a"}, {"at": 1, "action": "submit_tx", "id": "a"}],
             "event 1: transaction id 'a' already submitted"),
            ([{"at": "soon", "action": "tick"}], "event 0: field 'at' expects an integer, got 'soon'"),
            ([{"at": 1.5, "action": "tick"}], "event 0: field 'at' expects an integer, got 1.5"),
            ([{"at": "7", "action": "tick"}], "event 0: field 'at' expects an integer, got '7'"),
            ([{"at": True, "action": "tick"}], "event 0: field 'at' expects an integer, got True"),
            ([{"at": 0, "action": "submit_tx", "id": "a", "gas_price": 2.9}],
             "event 0: field 'gas_price' expects an integer, got 2.9"),
            ([{**_TICKET, "callvalue": "10"}], "event 0: field 'callvalue' expects an integer, got '10'"),
            ([_TICKET, {"at": 1, "action": "auto_redeem", "id": "t", "l2_gas_required": False}],
             "event 1: field 'l2_gas_required' expects an integer, got False"),
            ([_TICKET, {"at": 1, "action": "auto_redeem", "id": "t", "l2_gas_required": 1},
              {"at": 2, "action": "auto_redeem", "id": "t", "l2_gas_required": 1}],
             "event 2: auto_redeem on ticket in state auto_redeemed"),
            ([_TICKET, {"at": 1, "action": "auto_redeem", "id": "t", "l2_gas_required": 99},
              {"at": 700_000, "action": "manual_redeem", "id": "t", "new_submission_fee": 1,
               "l2_gas": 1}],
             "event 2: ticket t redeem window closed at 604800"),
            ([{**_TICKET, "escrow_callvalue": "false"}],
             "event 0: field 'escrow_callvalue' expects a boolean, got 'false'"),
            ([{"at": 0, "action": "submit_tx", "id": "a", "underpriced": "no"}],
             "event 0: field 'underpriced' expects a boolean, got 'no'"),
            ([{**_TICKET, "escrow_callvalue": 0}],
             "event 0: field 'escrow_callvalue' expects a boolean, got 0"),
            ([{"at": 0, "action": "submit_tx", "id": "a", "underpriced": 1}],
             "event 0: field 'underpriced' expects a boolean, got 1"),
        ],
        ids=["unknown-ticket", "missing-id", "bad-origin", "duplicate-tx", "non-integer-at",
             "fractional-at", "string-at", "bool-at", "fractional-gas-price", "string-callvalue",
             "bool-gas-required", "second-auto-redeem", "redeem-after-window",
             "string-false-escrow", "string-no-underpriced", "zero-escrow", "one-underpriced"],
    )
    def test_malformed_record_names_its_index(self, events, message):
        from arbmigrate.scenarios import replay_events

        with pytest.raises(EventScriptError, match=re.escape(message)):
            replay_events(events)


def _replay_with_full_scan_expiry(events):
    """Reference for ticket scripts: every expire record scans every ticket created."""
    ledger = retryable.FeeLedger()
    tickets, reverted = {}, []
    for index, event in enumerate(events):
        at, action = event["at"], event["action"]
        try:
            if action == "create_ticket":
                try:
                    tickets[event["id"]] = retryable.create_ticket(
                        ledger, ticket_id=event["id"], created_at=at,
                        funds_provided=event["funds_provided"], required=event["required"],
                        submission_fee=event["submission_fee"],
                        l2_gas_provided=event["l2_gas_provided"], callvalue=event["callvalue"],
                        refund_address=0, escrow_callvalue=event["escrow_callvalue"],
                    )
                except retryable.TicketRevert:
                    reverted.append(event["id"])
            elif action == "auto_redeem":
                retryable.auto_redeem(tickets[event["id"]], ledger, event["l2_gas_required"], now=at)
            elif action == "manual_redeem":
                retryable.manual_redeem(tickets[event["id"]], ledger, event["new_submission_fee"],
                                        event["l2_gas"], now=at)
            else:
                retryable.expire_tickets(tickets.values(), ledger, now=at)
        except retryable.TicketStateError as exc:
            raise EventScriptError(f"event {index}: {exc}") from exc
    return {
        "executed": [], "pending": [], "delayed_inbox": [], "max_staleness_s": 0,
        "tickets": {tid: t.state.value for tid, t in sorted(tickets.items())},
        "reverted_tickets": sorted(reverted),
        "ledger": ledger._asdict(),
    }


@st.composite
def _ticket_scripts(draw):
    """Ticket scripts: redeems out of creation order, equal deadlines, expiry at the deadline."""
    window = retryable.BUFFER_LIFETIME
    events, created_at, fresh, buffered = [], {}, [], []
    at = 0
    for n in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["create", "create", "auto", "auto", "manual", "expire",
                                     "at_deadline", "wait"]))
        if kind == "wait":
            at += draw(st.sampled_from([1, 100, window - 1, window]))
        elif kind == "create":
            value, short = draw(st.integers(0, 50)), draw(st.booleans()) and draw(st.booleans())
            events.append({**_TICKET, "at": at, "id": f"t{n}", "funds_provided": 20 + value - short,
                           "required": 20 + value, "callvalue": value,
                           "escrow_callvalue": draw(st.booleans())})
            if not short:
                created_at[f"t{n}"] = at
                fresh.append(f"t{n}")
        elif kind == "auto" and fresh:
            tid = fresh.pop(draw(st.integers(0, len(fresh) - 1)))
            fail = draw(st.booleans())
            events.append({"at": at, "action": "auto_redeem", "id": tid,
                           "l2_gas_required": 11 if fail else 10})
            buffered += [tid] * fail
        elif kind == "manual" and buffered:
            tid = buffered.pop(draw(st.integers(0, len(buffered) - 1)))
            if at < created_at[tid] + window:
                events.append({"at": at, "action": "manual_redeem", "id": tid,
                               "new_submission_fee": 3, "l2_gas": 4})
        elif kind == "at_deadline" and created_at:
            at = max(at, created_at[draw(st.sampled_from(sorted(created_at)))] + window)
            events.append({"at": at, "action": "expire_tickets"})
        elif kind == "expire":
            events.append({"at": at, "action": "expire_tickets"})
    return events


@settings(max_examples=300, deadline=None)
@given(events=_ticket_scripts())
def test_heap_expiry_matches_a_full_scan(events):
    from arbmigrate.scenarios import replay_events

    def outcome(replay):
        try:
            return json.dumps(replay(events), sort_keys=True)
        except EventScriptError as exc:
            return str(exc)

    assert outcome(replay_events) == outcome(_replay_with_full_scan_expiry)
