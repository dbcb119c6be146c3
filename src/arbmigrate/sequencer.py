"""Sequencer model: collect/order/execute, downtime, delayed inbox, force inclusion.

A new sequencer is active with empty queues, and transactions enter it only
through ``submit``.  While it is active it drains the delayed inbox first
(oldest transactions before anything newer) and then its own pending queue.
While it is down, transactions pile up in the delayed inbox; only entries at
least ``FORCE_INCLUSION_DELAY`` seconds old get executed regardless of
sequencer status, so nothing is ever stuck forever.

A down tick touches only what it force-includes: the delayed-inbox
transactions that are not underpriced also sit in a min-heap ordered by
``(submit_time, arrival order)``, so its top is the oldest one.  The tick pops
the entries that have waited out the delay, runs them in arrival order and
removes them from the inbox, a dict keyed by transaction id.  Editing a queued
transaction in place leaves the heap out of date.  Transaction ids must be
unique, and the sequencer keeps none to check: ``scenarios.replay_events``
checks the ids it reads.
"""

from __future__ import annotations

import heapq
from collections import deque
from enum import Enum
from typing import Any

from ._record import Record


FORCE_INCLUSION_DELAY = 86_400


class TxOrigin(Enum):
    DIRECT_TO_SEQUENCER = "direct_to_sequencer"
    DELAYED_INBOX = "delayed_inbox"


# CPython 3.11 reads a member through its class in EnumType.__getattr__; a global is ~10x cheaper
DIRECT_TO_SEQUENCER, DELAYED_INBOX = TxOrigin


class SequencerStatus(Enum):
    ACTIVE = "active"
    DOWN = "down"


ACTIVE, DOWN = SequencerStatus  # as globals, like TxOrigin's members


class TimeRegression(ValueError):
    """A tick was asked to run earlier than a previous tick."""


class L2Tx(Record):
    """One L2 transaction.

    ``underpriced`` marks a delayed-inbox submission whose manually chosen
    gas parameters are too low; it is never force-included, and waits in the
    delayed inbox until the sequencer is active again.
    """

    def __init__(self, id: str, submit_time: int,
                 origin: TxOrigin = DIRECT_TO_SEQUENCER, gas_price: int = 0,
                 payload: Any = None, underpriced: bool = False):
        if submit_time < 0:
            raise ValueError("submit_time must be non-negative")
        self.id, self.submit_time, self.origin = id, submit_time, origin
        self.gas_price, self.payload, self.underpriced = gas_price, payload, underpriced


class Sequencer:
    """Single-owner sequencer state; callers serialize mutations."""

    def __init__(self):
        self.status = SequencerStatus.ACTIVE
        self.pending: deque[L2Tx] = deque()
        self.delayed_inbox: dict[str, L2Tx] = {}  # id -> tx, arrival order
        self._arrivals = 0  # txs taken in; a submit's count is its arrival order
        self._last_tick: int | None = None
        # (submit_time, arrival order, id) of every delayed-inbox tx that is not underpriced
        self._due: list[tuple[int, int, str]] = []

    def submit(self, tx: L2Tx) -> None:
        """Route a fresh transaction to the pending queue or the delayed inbox.

        Direct submissions reach the pending queue only while the sequencer
        is active; everything else lands in the delayed inbox.
        """
        self._arrivals += 1
        if tx.origin is DIRECT_TO_SEQUENCER and self.status is ACTIVE:
            self.pending.append(tx)
        else:
            self.delayed_inbox[tx.id] = tx
            if not tx.underpriced:
                heapq.heappush(self._due, (tx.submit_time, self._arrivals, tx.id))

    def tick(self, now: int) -> list[L2Tx]:
        """Execute whatever is currently eligible; returns txs in execution order."""
        if self._last_tick is not None and now < self._last_tick:
            raise TimeRegression(f"tick at {now} precedes previous tick at {self._last_tick}")
        self._last_tick = now

        if self.status is ACTIVE:
            executed = [*self.delayed_inbox.values(), *self.pending]
            self.delayed_inbox.clear()
            self.pending.clear()
            self._due.clear()
        else:
            # Force inclusion: delayed-inbox txs whose age reached the delay
            # run even without the sequencer, unless their gas parameters are
            # flagged underpriced (those are not queued).
            due = []
            while self._due and now - self._due[0][0] >= FORCE_INCLUSION_DELAY:
                due.append(heapq.heappop(self._due))
            due.sort(key=lambda entry: entry[1])
            executed = [self.delayed_inbox.pop(tx_id) for _, _, tx_id in due]
        return executed
