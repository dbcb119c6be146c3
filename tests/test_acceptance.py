"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget (run with `pytest tests/test_acceptance.py -v -s`).

Two expectations below intentionally pin values that respect the published
source's own stated mechanisms where individual printed cells contradict
them; the details are asserted explicitly in criteria 1 and 2.
"""

import json
import random
import time
from pathlib import Path

from arbmigrate.aliasing import ADDRESS_SPACE, ALIAS_OFFSET_INT, Address, apply_alias, undo_alias
from arbmigrate.chainmodel import (
    L1Chain,
    L2View,
    WallClock,
    block_number_table,
    l1_block_number_at,
    l2_view_l1_number_at,
)
from arbmigrate.gasmodel import GasParams, cost_comparison_table, gas_fees
from arbmigrate.minisol import parse_source
from arbmigrate.retryable import (
    BUFFER_LIFETIME,
    FeeLedger,
    RedeemWindowClosed,
    TicketRevert,
    TicketState,
    TicketStateError,
    auto_redeem,
    create_ticket,
    expire_tickets,
    manual_redeem,
)
from arbmigrate.rules import analyze, findings_to_json
from arbmigrate.scenarios import run_scenario
from arbmigrate.sequencer import L2Tx, Sequencer, SequencerStatus, TxOrigin

CORPUS = Path(__file__).parent / "corpus"


class _Budget:
    def __init__(self, criterion: str, limit_s: float):
        self.criterion = criterion
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"{self.criterion} exceeded its {self.limit_s}s budget: {elapsed:.2f}s"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s < {self.limit_s}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL")
        return False


def test_criterion_1_block_number_comparison_table():
    with _Budget("C1 block-number table", 1.0):
        chain = L1Chain(genesis_number=1000, block_interval=15)
        view = L2View(sync_period=60)
        rows = block_number_table(chain, view, horizon=75, step=15)
        pairs = [(l1, l2) for _, l1, l2 in rows]

        # Published reference: rows at 12:00:00-12:01:00. The 12:01:15 row is
        # printed there as (1005, 1005), which contradicts the same source's
        # once-per-minute refresh (the value observed at 12:01:00 must hold
        # until 12:02:00); the mechanism-implied pair is (1005, 1004).
        assert pairs[:5] == [(1000, 1000), (1001, 1000), (1002, 1000), (1003, 1000), (1004, 1004)]
        assert pairs[5] == (1005, 1004)
        # within-minute constancy, the property the printed cell violates:
        assert len({l2 for _, _, l2 in rows[4:]}) == 1


def test_criterion_2_cost_table_reproduction():
    with _Budget("C2 cost-savings table", 1.0):
        table = cost_comparison_table()
        computed_pcts = [r.pct_saved for r in table.rows]
        computed_amounts = [r.amount_saved for r in table.rows]

        published_pcts = [96, 87, 96, 97, 98, 99]
        published_amounts = [387, 57, 535, 245, 389, 358]

        # recomputation from the dollar columns (cents, exact arithmetic)
        assert computed_pcts == [96, 86, 96, 97, 98, 99]
        assert computed_amounts == [387, 56, 535, 245, 389, 358]

        # five of six rows reproduce the published table exactly; the EOA
        # row is internally inconsistent at the source (0.65 - 0.09 = 0.56,
        # not the published 0.57) and differs by exactly one cent / one
        # percentage point
        for i in range(6):
            if i == 1:
                assert published_amounts[i] - computed_amounts[i] == 1
                assert published_pcts[i] - computed_pcts[i] == 1
            else:
                assert computed_pcts[i] == published_pcts[i]
                assert computed_amounts[i] == published_amounts[i]

        # the published 95.5% mean is the mean of the published per-row
        # percentages (inheriting the EOA misprint); the recomputed mean is
        # the mean of the recomputed ones
        assert sum(published_pcts) / 6 == 95.5
        assert table.mean_pct == sum(computed_pcts) / 6 == 572 / 6


def test_criterion_3_gas_formula_identity():
    with _Budget("C3 gas-formula identity", 5.0):
        rng = random.Random(0)
        for _ in range(10_000):
            p = GasParams(
                gas_used_l2=rng.randint(0, 10**8),
                calldata_price_l1=rng.randint(0, 10**6),
                calldata_size_l1=rng.randint(0, 10**5),
                gas_price_l2=rng.randint(1, 10**6),
            )
            expanded = p.gas_used_l2 * p.gas_price_l2 + p.calldata_price_l1 * p.calldata_size_l1
            diff = gas_fees(p) - expanded
            assert 0 <= diff < p.gas_price_l2


def test_criterion_4_retryable_ledger_conservation():
    with _Budget("C4 retryable ledger", 5.0):
        rng = random.Random(42)
        for seq_no in range(1_000):
            ledger = FeeLedger()
            tickets = []
            for i in range(rng.randint(1, 4)):
                fee, gas = rng.randint(0, 100), rng.randint(0, 1_000)
                cv, extra = rng.randint(0, 5_000), rng.randint(0, 50)
                funds = fee + gas + cv + extra
                try:
                    tickets.append(
                        create_ticket(
                            ledger,
                            ticket_id=f"{seq_no}-{i}",
                            created_at=rng.randint(0, 1_000),
                            funds_provided=funds,
                            required=funds + rng.randint(-30, 30),
                            submission_fee=fee,
                            l2_gas_provided=gas,
                            callvalue=cv,
                            l1_gas_spent=rng.randint(0, 30_000),
                            escrow_callvalue=rng.random() < 0.5,
                        )
                    )
                except TicketRevert:
                    pass
                assert ledger.balanced()
            for ticket in tickets:
                try:
                    auto_redeem(ticket, ledger, rng.randint(0, 1_500), now=rng.randint(0, 500))
                except TicketStateError:
                    pass
                assert ledger.balanced()
                if ticket.state is TicketState.BUFFERED and rng.random() < 0.6:
                    try:
                        manual_redeem(
                            ticket, ledger, rng.randint(0, 100), rng.randint(0, 1_000),
                            now=rng.randint(0, 2 * BUFFER_LIFETIME),
                        )
                    except (RedeemWindowClosed, TicketStateError):
                        pass
                    assert ledger.balanced()
            expire_tickets(tickets, ledger, now=rng.randint(0, 3 * BUFFER_LIFETIME))
            assert ledger.balanced()

        # expiry boundary: alive one second before a week, expired exactly at it
        ledger = FeeLedger()
        ticket = create_ticket(
            ledger, ticket_id="boundary", created_at=0, funds_provided=300,
            required=300, submission_fee=100, l2_gas_provided=100, callvalue=100,
        )
        auto_redeem(ticket, ledger, l2_gas_required=999, now=1)
        assert expire_tickets([ticket], ledger, now=604_799) == []
        assert ticket.state is TicketState.BUFFERED
        assert expire_tickets([ticket], ledger, now=604_800) == [ticket]
        assert ticket.state is TicketState.EXPIRED
        assert ledger.balanced()


def test_criterion_5_alias_round_trip():
    with _Budget("C5 alias round trip", 1.0):
        rng = random.Random(7)
        for _ in range(10_000):
            a = Address(rng.randrange(ADDRESS_SPACE))
            assert undo_alias(apply_alias(a)) == a
        for value in (0, ALIAS_OFFSET_INT, ADDRESS_SPACE - 1):
            a = Address(value)
            assert undo_alias(apply_alias(a)) == a


def test_criterion_6_sequencer_ordering_property():
    with _Budget("C6 sequencer ordering", 5.0):
        rng = random.Random(99)
        for trial in range(250):
            down_start = rng.randint(0, 500)
            downtime = rng.randint(1, 5_000)
            down_end = down_start + downtime
            horizon = down_end + rng.randint(100, 2_000)
            tick_every = rng.choice([1, 7, 13, 60])

            seq = Sequencer()
            queued_during_downtime = []
            post_recovery_direct = []
            # one transaction lands exactly when the outage starts
            schedule = [(down_start, "direct")]
            for i in range(rng.randint(0, 30)):
                schedule.append(
                    (rng.randint(0, horizon), rng.choice(["direct", "delayed"]))
                )
            schedule.sort()

            submitted = 0
            next_id = 0
            executed = []  # (tx, execution time), from what each tick returns
            events = iter(schedule)
            pending_event = next(events, None)
            for now in range(0, horizon + 1, tick_every):
                down = down_start <= now < down_end
                seq.status = SequencerStatus.DOWN if down else SequencerStatus.ACTIVE
                while pending_event is not None and pending_event[0] <= now:
                    at, kind = pending_event
                    origin = (
                        TxOrigin.DIRECT_TO_SEQUENCER if kind == "direct" else TxOrigin.DELAYED_INBOX
                    )
                    tx = L2Tx(id=f"t{trial}-{next_id}", submit_time=at, origin=origin)
                    seq.submit(tx)
                    if down_start <= at < down_end:
                        queued_during_downtime.append(tx.id)
                    if kind == "direct" and at >= down_end:
                        post_recovery_direct.append(tx.id)
                    submitted += 1
                    next_id += 1
                    pending_event = next(events, None)
                executed += [(tx, now) for tx in seq.tick(now)]
                assert submitted == len(seq.pending) + len(seq.delayed_inbox) + len(executed)

            seq.status = SequencerStatus.ACTIVE
            executed += [(tx, horizon + 1) for tx in seq.tick(horizon + 1)]

            order = {tx.id: i for i, (tx, _) in enumerate(executed)}
            pre_recovery_delayed = [
                tx_id for tx_id in queued_during_downtime if tx_id in order
            ]
            for early in pre_recovery_delayed:
                for late in post_recovery_direct:
                    if late in order:
                        assert order[early] < order[late], (
                            f"trial {trial}: {early} executed after {late}"
                        )
            # conservation at the end: everything submitted was executed
            assert (len(seq.pending), len(seq.delayed_inbox)) == (0, 0)
            assert submitted == len(executed)
            # the tx queued at the moment the outage began waited it out
            assert max(at - tx.submit_time for tx, at in executed) >= downtime


def test_criterion_7_rules_corpus():
    with _Budget("C7 rules corpus", 2.0):
        labels = json.loads((CORPUS / "labels.json").read_text())
        assert len(labels) >= 14

        per_rule = {}
        for items in labels.values():
            for item in items:
                per_rule[item["rule_id"]] = per_rule.get(item["rule_id"], 0) + 1
        assert all(count >= 2 for count in per_rule.values())
        assert len(per_rule) == 7

        def analyze_corpus():
            all_findings = []
            files = []
            for name, expected in sorted(labels.items()):
                unit = parse_source((CORPUS / name).read_text(), path=name)
                findings = analyze(unit)
                got = [{"rule_id": f.rule_id, "line": f.line} for f in findings]
                assert got == expected, f"{name}: {got} != {expected}"
                if name.endswith("clean.sol"):
                    assert findings == []
                files.append(name)
                all_findings.extend(findings)
            return findings_to_json(all_findings, files)

        first = analyze_corpus()
        second = analyze_corpus()
        assert first == second


def test_criterion_8_scenario_checks():
    with _Budget("C8 scenarios", 5.0):
        # S2: observable fraction against an independent brute-force oracle
        report = run_scenario("S2")
        chain = L1Chain(genesis_number=1000, block_interval=15)
        view = L2View(sync_period=60)
        produced = set()
        observable = set()
        for t in range(3600):
            produced.add(l1_block_number_at(WallClock(t), chain))
            observable.add(l2_view_l1_number_at(WallClock(t), chain, view))
        oracle_fraction = len(observable & produced) / len(produced)
        assert report.l2_outcome["observable_fraction"] == oracle_fraction == 0.25

        # S4: first failing N matches the closed-form floor expression
        for limit, base, per in ((30_000_000, 50_000, 40_000), (12_345_678, 1_000, 777)):
            r = run_scenario(
                "S4",
                {"block_gas_limit": limit, "base_gas": base, "per_iteration_gas": per},
            )
            assert r.l2_outcome["first_failing_n"] == (limit - base) // per + 1

        # S3: exactly (deny, allow)
        r3 = run_scenario("S3")
        assert (r3.l2_outcome["raw_check"], r3.l2_outcome["alias_aware_check"]) == (
            "deny",
            "allow",
        )

        # S1 with zero downtime: zero divergence
        r1 = run_scenario("S1", {"downtime_s": 0})
        assert not r1.divergent
        assert all(v == 0 for v in r1.divergence.values())
