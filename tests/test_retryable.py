import random

import pytest

from arbmigrate.retryable import (
    BUFFER_LIFETIME,
    FeeLedger,
    RedeemWindowClosed,
    Ticket,
    TicketRevert,
    TicketState,
    TicketStateError,
    TRANSITIONS,
    auto_redeem,
    create_ticket,
    expire_tickets,
    manual_redeem,
)


def make_ticket(ledger, ticket_id="t1", *, fee=100, gas=400, callvalue=1000, extra=0, **kw):
    funds = fee + gas + callvalue + extra
    return create_ticket(
        ledger,
        ticket_id=ticket_id,
        created_at=kw.pop("created_at", 0),
        funds_provided=funds,
        required=kw.pop("required", funds),
        submission_fee=fee,
        l2_gas_provided=gas,
        callvalue=callvalue,
        refund_address=0xA11CE,
        **kw,
    )


class TestCreate:
    def test_insufficient_funds_reverts_and_loses_l1_gas(self):
        ledger = FeeLedger()
        with pytest.raises(TicketRevert) as err:
            create_ticket(
                ledger,
                ticket_id="t1",
                created_at=0,
                funds_provided=90,
                required=100,
                submission_fee=10,
                l2_gas_provided=10,
                callvalue=70,
                refund_address=1,
                l1_gas_spent=21_000,
            )
        assert err.value.reason == "insufficient_funds"
        assert ledger.lost == 21_000
        assert ledger.balanced()

    def test_exact_funds_accepted(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        assert ticket.state is TicketState.CREATED
        assert ledger.balanced()

    def test_excess_funds_tracked_for_refund(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger, extra=50)
        assert ticket.excess == 50
        auto_redeem(ticket, ledger, l2_gas_required=400, now=1)
        assert ledger.refunded == 100 + 0 + 50  # fee + unused gas + excess
        assert ledger.balanced()

    def test_underfunded_composition_is_a_usage_error(self):
        ledger = FeeLedger()
        with pytest.raises(ValueError):
            create_ticket(
                ledger,
                ticket_id="t1",
                created_at=0,
                funds_provided=100,
                required=50,
                submission_fee=90,
                l2_gas_provided=90,
                callvalue=0,
                refund_address=1,
            )


class TestAutoRedeem:
    def test_success_refunds_submission_fee_and_delivers_callvalue(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        assert auto_redeem(ticket, ledger, l2_gas_required=300, now=5) is True
        assert ticket.state is TicketState.AUTO_REDEEMED
        assert ledger.refunded == 100 + (400 - 300)
        assert ledger.consumed_as_fees == 300
        assert ledger.delivered_callvalue == 1000
        assert ledger.balanced()

    def test_failure_buffers_and_charges_submission_fee(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        assert auto_redeem(ticket, ledger, l2_gas_required=500, now=5) is False
        assert ticket.state is TicketState.BUFFERED
        assert ledger.consumed_as_fees == 100
        assert ledger.refunded == 400  # entire unused gas allowance
        assert ledger.delivered_callvalue == 0
        assert ledger.balanced()

    def test_redeem_on_terminal_ticket_rejected_without_ledger_change(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        auto_redeem(ticket, ledger, l2_gas_required=0, now=5)
        snapshot = FeeLedger(**vars(ledger))
        with pytest.raises(TicketStateError):
            auto_redeem(ticket, ledger, l2_gas_required=0, now=6)
        assert ledger == snapshot


class TestManualRedeem:
    def _buffered(self, ledger):
        ticket = make_ticket(ledger)
        auto_redeem(ticket, ledger, l2_gas_required=9_999, now=60)
        return ticket

    def test_day_three_redeem_delivers_but_costs_more_than_auto_success(self):
        manual_ledger = FeeLedger()
        ticket = self._buffered(manual_ledger)
        manual_redeem(ticket, manual_ledger, new_submission_fee=100, l2_gas=300, now=3 * 86_400)
        assert ticket.state is TicketState.MANUALLY_REDEEMED
        assert manual_ledger.delivered_callvalue == 1000
        assert manual_ledger.balanced()

        auto_ledger = FeeLedger()
        auto_redeem(make_ticket(auto_ledger), auto_ledger, l2_gas_required=300, now=60)
        # identical params: the retry path pays the submission fee twice
        assert manual_ledger.consumed_as_fees > auto_ledger.consumed_as_fees

    def test_day_eight_redeem_window_closed(self):
        ledger = FeeLedger()
        ticket = self._buffered(ledger)
        with pytest.raises(RedeemWindowClosed):
            manual_redeem(ticket, ledger, new_submission_fee=100, l2_gas=300, now=8 * 86_400)

    def test_manual_redeem_requires_buffered_state(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        with pytest.raises(TicketStateError):
            manual_redeem(ticket, ledger, new_submission_fee=100, l2_gas=300, now=60)


class TestExpiry:
    def _buffered(self, ledger, **kw):
        ticket = make_ticket(ledger, **kw)
        auto_redeem(ticket, ledger, l2_gas_required=9_999, now=60)
        return ticket

    def test_one_second_before_deadline_still_buffered(self):
        ledger = FeeLedger()
        ticket = self._buffered(ledger)
        assert expire_tickets([ticket], ledger, now=604_799) == []
        assert ticket.state is TicketState.BUFFERED

    def test_exactly_at_deadline_expires(self):
        ledger = FeeLedger()
        ticket = self._buffered(ledger, escrow_callvalue=False)
        expired = expire_tickets([ticket], ledger, now=604_800)
        assert [t.id for t in expired] == ["t1"]
        assert ticket.state is TicketState.EXPIRED
        assert ledger.lost == 1000
        assert ledger.balanced()

    def test_escrowed_callvalue_survives_expiry(self):
        ledger = FeeLedger()
        ticket = self._buffered(ledger, escrow_callvalue=True)
        expire_tickets([ticket], ledger, now=BUFFER_LIFETIME)
        assert ledger.lost == 0
        assert ledger.refunded >= 1000
        assert ledger.balanced()

    def test_no_buffered_tickets_no_change(self):
        ledger = FeeLedger()
        ticket = make_ticket(ledger)
        assert expire_tickets([ticket], ledger, now=10 * 86_400) == []
        assert ticket.state is TicketState.CREATED


class TestStateMachine:
    def test_transition_table_absorbing_terminals(self):
        terminal = {TicketState.AUTO_REDEEMED, TicketState.MANUALLY_REDEEMED, TicketState.EXPIRED}
        for state in terminal:
            assert TRANSITIONS[state] == set()

    def test_every_state_operation_pair(self):
        # Exhaustive: operations applied in each state either follow the
        # declared transitions or raise without touching the ledger.
        operations = {
            "auto_redeem": lambda t, led: auto_redeem(t, led, 0, now=1),
            "manual_redeem": lambda t, led: manual_redeem(t, led, 1, 1, now=1),
            "expire": lambda t, led: expire_tickets([t], led, now=t.deadline()),
        }
        for state in TicketState:
            for name, op in operations.items():
                ledger = FeeLedger()
                ticket = Ticket(
                    id="x", created_at=0, submission_fee=10, l2_gas_provided=10,
                    callvalue=10, refund_address=1, state=state,
                )
                allowed = name in TRANSITIONS[state]
                if name == "expire":
                    # expire skips non-buffered tickets instead of raising
                    expired = op(ticket, ledger)
                    assert bool(expired) == allowed
                elif allowed:
                    op(ticket, ledger)
                    assert ticket.state is not state
                else:
                    with pytest.raises(TicketStateError):
                        op(ticket, ledger)
                    assert ticket.state is state
                    assert ledger == FeeLedger()
                assert ledger.balanced()


def test_ledger_identity_over_random_operation_sequences():
    rng = random.Random(7)
    for round_no in range(300):
        ledger = FeeLedger()
        tickets = []
        for i in range(rng.randint(1, 5)):
            fee, gas, cv = rng.randint(0, 50), rng.randint(0, 500), rng.randint(0, 2000)
            extra = rng.randint(0, 30)
            funds = fee + gas + cv + extra
            required = funds + rng.randint(-20, 20)
            try:
                tickets.append(
                    create_ticket(
                        ledger,
                        ticket_id=f"t{round_no}-{i}",
                        created_at=rng.randint(0, 100),
                        funds_provided=funds,
                        required=required,
                        submission_fee=fee,
                        l2_gas_provided=gas,
                        callvalue=cv,
                        refund_address=1,
                        l1_gas_spent=rng.randint(0, 5_000),
                        escrow_callvalue=rng.random() < 0.5,
                    )
                )
            except TicketRevert:
                pass
            ledger.assert_balanced()
        for ticket in tickets:
            action = rng.random()
            try:
                if action < 0.6:
                    auto_redeem(ticket, ledger, rng.randint(0, 700), now=rng.randint(0, 1000))
                    if ticket.state is TicketState.BUFFERED and rng.random() < 0.5:
                        manual_redeem(
                            ticket, ledger, rng.randint(0, 50), rng.randint(0, 500),
                            now=rng.randint(0, 2 * BUFFER_LIFETIME),
                        )
            except (TicketStateError, RedeemWindowClosed):
                pass
            ledger.assert_balanced()
        expire_tickets(tickets, ledger, now=rng.randint(0, 3 * BUFFER_LIFETIME))
        ledger.assert_balanced()
