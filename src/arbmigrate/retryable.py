"""Retryable-ticket lifecycle with exact fee/refund/expiry accounting.

Lifecycle::

    created ──auto_redeem ok──▶ auto_redeemed
       │
       └─auto_redeem fail──▶ buffered ──manual_redeem──▶ manually_redeemed
                                │
                                └──────expire──────────▶ expired

Terminal states absorb.  All fee amounts are integers (smallest
denomination) so the ledger identity

    paid_in == refunded + consumed_as_fees + delivered_callvalue + lost

holds exactly after every operation.  The ledger records funds at the moment
their disposition is decided: a successfully created ticket escrows its
funds inside the ticket record, and they enter the ledger when the redeem,
expiry, or loss that settles them happens.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from ._record import Record


BUFFER_LIFETIME = 7 * 86_400  # one week


class TicketState(Enum):
    CREATED = "created"
    AUTO_REDEEMED = "auto_redeemed"
    BUFFERED = "buffered"
    MANUALLY_REDEEMED = "manually_redeemed"
    EXPIRED = "expired"


# state -> the operations it allows; every operation below consults it.
TRANSITIONS = {
    TicketState.CREATED: {"auto_redeem"},
    TicketState.BUFFERED: {"manual_redeem", "expire"},
    TicketState.AUTO_REDEEMED: set(),
    TicketState.MANUALLY_REDEEMED: set(),
    TicketState.EXPIRED: set(),
}


class TicketRevert(Exception):
    """Creation-time revert; carries the reason string."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TicketStateError(Exception):
    """Operation applied to a ticket in the wrong state."""


class RedeemWindowClosed(TicketStateError):
    """Manual redeem attempted after the buffer lifetime elapsed."""


class FeeLedger(Record):
    def __init__(self, paid_in: int = 0, refunded: int = 0, consumed_as_fees: int = 0,
                 delivered_callvalue: int = 0, lost: int = 0):
        self.paid_in, self.refunded, self.consumed_as_fees = paid_in, refunded, consumed_as_fees
        self.delivered_callvalue, self.lost = delivered_callvalue, lost

    def balanced(self) -> bool:
        return self.paid_in == (
            self.refunded + self.consumed_as_fees + self.delivered_callvalue + self.lost
        )

    def assert_balanced(self) -> None:
        if not self.balanced():
            raise AssertionError(f"ledger identity violated: {self}")


class Ticket(Record):
    def __init__(self, id: str, created_at: int, submission_fee: int, l2_gas_provided: int,
                 callvalue: int, refund_address: int, excess: int = 0,
                 escrow_callvalue: bool = True, state: TicketState = TicketState.CREATED):
        self.id, self.created_at, self.submission_fee = id, created_at, submission_fee
        self.l2_gas_provided, self.callvalue = l2_gas_provided, callvalue
        self.refund_address, self.excess = refund_address, excess
        self.escrow_callvalue, self.state = escrow_callvalue, state

    def deadline(self) -> int:
        return self.created_at + BUFFER_LIFETIME

    def _check(self, op: str) -> None:
        if op not in TRANSITIONS[self.state]:
            raise TicketStateError(f"{op} on ticket in state {self.state.value}")


def create_ticket(
    ledger: FeeLedger,
    *,
    ticket_id: str,
    created_at: int,
    funds_provided: int,
    required: int,
    submission_fee: int,
    l2_gas_provided: int,
    callvalue: int,
    refund_address: int,
    l1_gas_spent: int = 0,
    escrow_callvalue: bool = True,
) -> Ticket:
    """Create a ticket after the L1 fund check.

    If ``funds_provided`` is below ``required`` the call reverts and the L1
    gas already spent is recorded as lost; nothing is refunded for it.
    """
    if funds_provided < 0:
        raise ValueError("funds_provided must be non-negative")
    if min(submission_fee, l2_gas_provided, callvalue, l1_gas_spent) < 0:
        raise ValueError("fee amounts must be non-negative")
    if funds_provided < required:
        ledger.paid_in += l1_gas_spent
        ledger.lost += l1_gas_spent
        raise TicketRevert("insufficient_funds")
    excess = funds_provided - (submission_fee + l2_gas_provided + callvalue)
    if excess < 0:
        raise ValueError(
            "funds_provided does not cover submission_fee + l2_gas_provided + callvalue"
        )
    return Ticket(
        id=ticket_id,
        created_at=created_at,
        submission_fee=submission_fee,
        l2_gas_provided=l2_gas_provided,
        callvalue=callvalue,
        refund_address=refund_address,
        excess=excess,
        escrow_callvalue=escrow_callvalue,
    )


def auto_redeem(ticket: Ticket, ledger: FeeLedger, l2_gas_required: int, now: int) -> bool:
    """Attempt the automatic redeem on L2; returns True on success.

    Success refunds the submission fee and any unused gas and delivers the
    callvalue.  Failure charges the submission fee, returns the unspent gas
    allowance, and parks the ticket in the buffer for a later manual redeem.
    """
    ticket._check("auto_redeem")
    if l2_gas_required < 0:
        raise ValueError("l2_gas_required must be non-negative")
    if ticket.l2_gas_provided >= l2_gas_required:
        ticket.state = TicketState.AUTO_REDEEMED
        ledger.paid_in += (
            ticket.submission_fee + ticket.l2_gas_provided + ticket.callvalue + ticket.excess
        )
        ledger.consumed_as_fees += l2_gas_required
        ledger.refunded += (
            ticket.submission_fee + (ticket.l2_gas_provided - l2_gas_required) + ticket.excess
        )
        ledger.delivered_callvalue += ticket.callvalue
        return True
    ticket.state = TicketState.BUFFERED
    ledger.paid_in += ticket.submission_fee + ticket.l2_gas_provided + ticket.excess
    ledger.consumed_as_fees += ticket.submission_fee
    ledger.refunded += ticket.l2_gas_provided + ticket.excess
    return False


def manual_redeem(
    ticket: Ticket,
    ledger: FeeLedger,
    new_submission_fee: int,
    l2_gas: int,
    now: int,
) -> None:
    """Redeem a buffered ticket by hand, paying the submission fee again."""
    ticket._check("manual_redeem")
    if min(new_submission_fee, l2_gas) < 0:
        raise ValueError("fee amounts must be non-negative")
    if now >= ticket.deadline():
        raise RedeemWindowClosed(f"ticket {ticket.id} redeem window closed at {ticket.deadline()}")
    ticket.state = TicketState.MANUALLY_REDEEMED
    ledger.paid_in += new_submission_fee + l2_gas + ticket.callvalue
    ledger.consumed_as_fees += new_submission_fee + l2_gas
    ledger.delivered_callvalue += ticket.callvalue


def expire_tickets(tickets: Iterable[Ticket], ledger: FeeLedger, now: int) -> list[Ticket]:
    """Expire every buffered ticket whose lifetime elapsed; returns those expired.

    The carried callvalue is lost unless the ticket escrows it separately
    (the default), in which case it is returned to the refund address.
    """
    expired = []
    for ticket in tickets:
        if "expire" not in TRANSITIONS[ticket.state] or now < ticket.deadline():
            continue
        ticket.state = TicketState.EXPIRED
        ledger.paid_in += ticket.callvalue
        if ticket.escrow_callvalue:
            ledger.refunded += ticket.callvalue
        else:
            ledger.lost += ticket.callvalue
        expired.append(ticket)
    return expired

