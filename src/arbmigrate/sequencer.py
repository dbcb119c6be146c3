"""Sequencer model: collect/order/execute, downtime, delayed inbox, force inclusion.

While the sequencer is active it drains the delayed inbox first (oldest
transactions before anything newer) and then its own pending queue.  While it
is down, transactions pile up in the delayed inbox; only entries older than
``force_inclusion_delay`` get executed regardless of sequencer status, so
nothing is ever stuck forever.

A down tick touches only what it force-includes: the delayed-inbox
transactions that are not underpriced also sit in a min-heap ordered by
``(submit_time, arrival order)``, so its top is the oldest one.  The tick pops
the entries that have waited out ``force_inclusion_delay``, runs them in
arrival order and removes them from the inbox, a dict keyed by transaction id.
Queue transactions through ``submit`` only; editing a queued one in place
leaves the heap out of date.  Transaction ids must be unique, and the sequencer
keeps none to check: ``scenarios.replay_events`` checks the ids it reads.
"""

from __future__ import annotations

import heapq
from collections import deque
from enum import Enum
from typing import Any

from ._record import Record


DEFAULT_FORCE_INCLUSION_DELAY = 86_400


class TxOrigin(Enum):
    DIRECT_TO_SEQUENCER = "direct_to_sequencer"
    DELAYED_INBOX = "delayed_inbox"


class SequencerStatus(Enum):
    ACTIVE = "active"
    DOWN = "down"


class TimeRegression(ValueError):
    """A tick was asked to run earlier than a previous tick."""


class L2Tx(Record):
    """One L2 transaction.

    ``underpriced`` marks a delayed-inbox submission whose manually chosen
    gas parameters are too low; it is never force-included, and waits in the
    delayed inbox until the sequencer is active again.
    """

    def __init__(self, id: str, submit_time: int,
                 origin: TxOrigin = TxOrigin.DIRECT_TO_SEQUENCER, gas_price: int = 0,
                 gas_limit: int = 0, payload: Any = None, underpriced: bool = False):
        if submit_time < 0:
            raise ValueError("submit_time must be non-negative")
        self.id, self.submit_time, self.origin = id, submit_time, origin
        self.gas_price, self.gas_limit, self.payload = gas_price, gas_limit, payload
        self.underpriced = underpriced


class Sequencer(Record):
    """Single-owner sequencer state; callers serialize mutations."""

    def __init__(
        self,
        status: SequencerStatus = SequencerStatus.ACTIVE,
        force_inclusion_delay: int = DEFAULT_FORCE_INCLUSION_DELAY,
        pending: deque[L2Tx] | None = None,
        delayed_inbox: dict[str, L2Tx] | None = None,  # id -> tx, arrival order
        executed_count: int = 0,
        _arrivals: int = 0,
        _last_tick: int | None = None,
    ):
        self.status, self.force_inclusion_delay = status, force_inclusion_delay
        self.pending = deque() if pending is None else pending
        self.delayed_inbox = {} if delayed_inbox is None else delayed_inbox
        self.executed_count = executed_count
        # txs taken in, the given queues included; a submit's count is its arrival order
        self._arrivals = max(_arrivals, len(self.pending) + len(self.delayed_inbox))
        self._last_tick = _last_tick
        # (submit_time, arrival order, id) of every delayed-inbox tx that is not
        # underpriced. Not a field.
        self._due = [
            (tx.submit_time, order, tx.id)
            for order, tx in enumerate(self.delayed_inbox.values())
            if not tx.underpriced
        ]
        heapq.heapify(self._due)

    def submit(self, tx: L2Tx) -> None:
        """Route a fresh transaction to the pending queue or the delayed inbox.

        Direct submissions reach the pending queue only while the sequencer
        is active; everything else lands in the delayed inbox.
        """
        self._arrivals += 1
        if (
            tx.origin is TxOrigin.DIRECT_TO_SEQUENCER
            and self.status is SequencerStatus.ACTIVE
        ):
            self.pending.append(tx)
        else:
            self.delayed_inbox[tx.id] = tx
            if not tx.underpriced:
                heapq.heappush(self._due, (tx.submit_time, self._arrivals, tx.id))

    def set_status(self, status: SequencerStatus) -> None:
        self.status = status

    def tick(self, now: int) -> list[L2Tx]:
        """Execute whatever is currently eligible; returns txs in execution order."""
        if self._last_tick is not None and now < self._last_tick:
            raise TimeRegression(f"tick at {now} precedes previous tick at {self._last_tick}")
        self._last_tick = now

        if self.status is SequencerStatus.ACTIVE:
            executed = [*self.delayed_inbox.values(), *self.pending]
            self.delayed_inbox.clear()
            self.pending.clear()
            self._due.clear()
        else:
            # Force inclusion: delayed-inbox txs whose age reached the
            # configured delay run even without the sequencer, unless their
            # gas parameters are flagged underpriced (those are not queued).
            due = []
            while self._due and now - self._due[0][0] >= self.force_inclusion_delay:
                due.append(heapq.heappop(self._due))
            due.sort(key=lambda entry: entry[1])
            executed = [self.delayed_inbox.pop(tx_id) for _, _, tx_id in due]

        self.executed_count += len(executed)
        return executed

    def counts(self) -> tuple[int, int, int, int]:
        """(submitted, pending, delayed, executed) for conservation checks."""
        return self._arrivals, len(self.pending), len(self.delayed_inbox), self.executed_count
