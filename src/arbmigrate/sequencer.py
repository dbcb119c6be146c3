"""Sequencer model: collect/order/execute, downtime, delayed inbox, force inclusion.

While the sequencer is active it drains the delayed inbox first (oldest
transactions before anything newer) and then its own pending queue.  While it
is down, transactions pile up in the delayed inbox; only entries older than
``force_inclusion_delay`` get executed regardless of sequencer status, so
nothing is ever stuck forever.

A down tick scans the delayed inbox only when something may be force-included:
the sequencer keeps a watermark no later than the oldest ``submit_time`` among
the queued delayed-inbox transactions that are not underpriced, and a tick
less than ``force_inclusion_delay`` after it returns at once.  Queue
transactions through ``submit`` only; editing a queued one in place can leave
the watermark too late.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


DEFAULT_FORCE_INCLUSION_DELAY = 86_400


class TxOrigin(Enum):
    DIRECT_TO_SEQUENCER = "direct_to_sequencer"
    DELAYED_INBOX = "delayed_inbox"


class SequencerStatus(Enum):
    ACTIVE = "active"
    DOWN = "down"


class DuplicateTransaction(ValueError):
    """A transaction id was submitted twice."""


class TimeRegression(ValueError):
    """A tick was asked to run earlier than a previous tick."""


@dataclass
class L2Tx:
    """One L2 transaction.

    ``underpriced`` marks a delayed-inbox submission whose manually chosen
    gas parameters are too low; it is never force-included, and waits in the
    delayed inbox until the sequencer is active again.
    """

    id: str
    submit_time: int
    origin: TxOrigin = TxOrigin.DIRECT_TO_SEQUENCER
    gas_price: int = 0
    gas_limit: int = 0
    payload: Any = None
    underpriced: bool = False

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError("submit_time must be non-negative")


@dataclass
class Sequencer:
    """Single-owner sequencer state; callers serialize mutations."""

    status: SequencerStatus = SequencerStatus.ACTIVE
    force_inclusion_delay: int = DEFAULT_FORCE_INCLUSION_DELAY
    pending: deque[L2Tx] = field(default_factory=deque)
    delayed_inbox: deque[L2Tx] = field(default_factory=deque)
    executed_log: list[tuple[L2Tx, int]] = field(default_factory=list)
    _seen_ids: set[str] = field(default_factory=set)
    _last_tick: int | None = field(default=None)
    # A lower bound on the submit_time of every delayed-inbox tx that is not
    # underpriced, None when there is none. It starts at 0, which bounds any
    # inbox the constructor was given; each full scan makes it exact again.
    _watermark: int | None = field(default=0, init=False, compare=False, repr=False)

    def submit(self, tx: L2Tx) -> None:
        """Route a fresh transaction to the pending queue or the delayed inbox.

        Direct submissions reach the pending queue only while the sequencer
        is active; everything else lands in the delayed inbox.
        """
        if tx.id in self._seen_ids:
            raise DuplicateTransaction(f"transaction id {tx.id!r} already submitted")
        self._seen_ids.add(tx.id)
        if (
            tx.origin is TxOrigin.DIRECT_TO_SEQUENCER
            and self.status is SequencerStatus.ACTIVE
        ):
            self.pending.append(tx)
        else:
            self.delayed_inbox.append(tx)
            if not tx.underpriced and (
                self._watermark is None or tx.submit_time < self._watermark
            ):
                self._watermark = tx.submit_time

    def set_status(self, status: SequencerStatus) -> None:
        self.status = status

    def tick(self, now: int) -> list[L2Tx]:
        """Execute whatever is currently eligible; returns txs in execution order."""
        if self._last_tick is not None and now < self._last_tick:
            raise TimeRegression(f"tick at {now} precedes previous tick at {self._last_tick}")
        self._last_tick = now

        executed: list[L2Tx] = []
        if self.status is SequencerStatus.ACTIVE:
            while self.delayed_inbox:
                executed.append(self.delayed_inbox.popleft())
            while self.pending:
                executed.append(self.pending.popleft())
            self._watermark = None
        elif self._watermark is None or now - self._watermark < self.force_inclusion_delay:
            return executed  # nothing has waited out the delay yet
        else:
            # Force inclusion: delayed-inbox txs whose age reached the
            # configured delay run even without the sequencer, unless their
            # gas parameters are flagged underpriced.
            remaining: deque[L2Tx] = deque()
            for tx in self.delayed_inbox:
                eligible = (
                    not tx.underpriced
                    and now - tx.submit_time >= self.force_inclusion_delay
                )
                if eligible:
                    executed.append(tx)
                else:
                    remaining.append(tx)
            self.delayed_inbox = remaining
            self._watermark = min(
                (tx.submit_time for tx in remaining if not tx.underpriced), default=None
            )

        for tx in executed:
            self.executed_log.append((tx, now))
        return executed

    def staleness(self) -> int:
        """Largest (execution time - submit time) over the executed log; 0 if empty."""
        if not self.executed_log:
            return 0
        return max(at - tx.submit_time for tx, at in self.executed_log)

    def counts(self) -> tuple[int, int, int, int]:
        """(submitted, pending, delayed, executed) for conservation checks."""
        return (
            len(self._seen_ids),
            len(self.pending),
            len(self.delayed_inbox),
            len(self.executed_log),
        )
