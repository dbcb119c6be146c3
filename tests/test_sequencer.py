from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbmigrate.sequencer import (
    L2Tx,
    Sequencer,
    SequencerStatus,
    TimeRegression,
    TxOrigin,
)


def direct(tx_id, t, **kw):
    return L2Tx(id=tx_id, submit_time=t, origin=TxOrigin.DIRECT_TO_SEQUENCER, **kw)


def delayed(tx_id, t, **kw):
    return L2Tx(id=tx_id, submit_time=t, origin=TxOrigin.DELAYED_INBOX, **kw)


def ticked(seq, now):
    """The (tx, execution time) pairs of one tick."""
    return [(tx, now) for tx in seq.tick(now)]


def max_wait(pairs):
    """Largest (execution time - submit time) over (tx, at) pairs; 0 if there are none."""
    return max((at - tx.submit_time for tx, at in pairs), default=0)


def test_active_direct_tx_executes_at_next_tick():
    seq = Sequencer()
    seq.submit(direct("a", 10))
    pairs = ticked(seq, 10)
    assert [tx.id for tx, _ in pairs] == ["a"]
    assert max_wait(pairs) == 0


def test_down_sequencer_accumulates_in_delayed_inbox():
    seq = Sequencer(status=SequencerStatus.DOWN)
    seq.submit(direct("a", 10))
    seq.submit(direct("b", 20))
    assert seq.tick(30) == []
    assert list(seq.delayed_inbox) == ["a", "b"]
    assert seq.counts() == (2, 0, 2, 0)


def test_delayed_origin_always_enters_delayed_inbox():
    seq = Sequencer()
    seq.submit(delayed("d", 5))
    assert list(seq.delayed_inbox) == ["d"]


def test_status_transitions():
    seq = Sequencer()
    seq.set_status(SequencerStatus.DOWN)
    seq.set_status(SequencerStatus.DOWN)  # no-op
    assert seq.status is SequencerStatus.DOWN
    seq.set_status(SequencerStatus.ACTIVE)
    assert seq.status is SequencerStatus.ACTIVE


def test_recovery_drains_old_delayed_txs_before_new_direct_ones():
    seq = Sequencer()
    seq.set_status(SequencerStatus.DOWN)
    seq.submit(direct("a", 10))
    seq.submit(direct("b", 20))
    assert seq.tick(3599) == []
    seq.set_status(SequencerStatus.ACTIVE)
    seq.submit(direct("c", 3601))
    executed = seq.tick(3602)
    assert [tx.id for tx in executed] == ["a", "b", "c"]
    assert seq.counts() == (3, 0, 0, 3)


def test_force_inclusion_after_configured_delay():
    seq = Sequencer(status=SequencerStatus.DOWN)
    seq.submit(direct("stuck", 0))
    assert seq.tick(86_399) == []
    executed = seq.tick(86_400)
    assert [tx.id for tx in executed] == ["stuck"]
    assert seq.status is SequencerStatus.DOWN


def test_underpriced_tx_skips_force_inclusion_until_the_sequencer_is_active():
    seq = Sequencer(status=SequencerStatus.DOWN)
    seq.submit(delayed("cheap", 0, gas_price=1, underpriced=True))
    assert seq.tick(90_000) == []
    seq.set_status(SequencerStatus.ACTIVE)
    executed = seq.tick(90_001)
    assert [tx.id for tx in executed] == ["cheap"]
    assert executed[0].gas_price == 1


def test_each_delayed_tx_is_force_included_at_its_own_deadline():
    seq = Sequencer(status=SequencerStatus.DOWN, force_inclusion_delay=100)
    seq.submit(delayed("late", 50))
    seq.submit(delayed("early", 0))
    seq.submit(delayed("cheap", 0, underpriced=True))
    assert seq.tick(99) == []
    assert [tx.id for tx in seq.tick(100)] == ["early"]
    seq.submit(delayed("backdated", 20))
    assert [tx.id for tx in seq.tick(120)] == ["backdated"]
    assert seq.tick(149) == []
    assert [tx.id for tx in seq.tick(150)] == ["late"]
    assert seq.tick(10_000) == []
    assert list(seq.delayed_inbox) == ["cheap"]


def test_inbox_given_to_the_constructor_is_force_included():
    seq = Sequencer(
        status=SequencerStatus.DOWN,
        force_inclusion_delay=10,
        pending=deque([direct("p", 0)]),
        delayed_inbox={"a": delayed("a", 3), "b": delayed("b", 1, underpriced=True)},
    )
    assert seq.tick(12) == []
    assert [tx.id for tx in seq.tick(13)] == ["a"]
    assert seq.counts() == (3, 1, 1, 1)  # the given queues count as submitted
    seq.submit(delayed("c", 4))  # arrives after "b", so it runs after it
    seq.set_status(SequencerStatus.ACTIVE)
    assert [tx.id for tx in seq.tick(20)] == ["b", "c", "p"]
    assert seq.counts() == (4, 0, 0, 4)


def test_tick_time_regression_rejected():
    seq = Sequencer()
    seq.tick(100)
    with pytest.raises(TimeRegression):
        seq.tick(99)


def test_staleness_covers_downtime_window():
    seq = Sequencer()
    seq.set_status(SequencerStatus.DOWN)
    seq.submit(direct("a", 0))
    seq.set_status(SequencerStatus.ACTIVE)
    assert max_wait(ticked(seq, 3600)) >= 3600


def test_staleness_empty_log_is_zero():
    assert max_wait(ticked(Sequencer(), 0)) == 0
    seq = Sequencer(status=SequencerStatus.DOWN)
    seq.submit(direct("a", 0))
    assert max_wait(ticked(seq, 86_399)) == 0


def test_zero_downtime_staleness_bounded_by_tick_interval():
    seq = Sequencer()
    interval = 10
    pairs = []
    for now in range(0, 200, interval):
        if now % 30 == 0:
            seq.submit(direct(f"t{now}", max(0, now - 7)))
        pairs += ticked(seq, now)
    assert len(pairs) == 7
    assert max_wait(pairs) <= interval


def test_conservation_simple():
    seq = Sequencer(status=SequencerStatus.DOWN)
    seq.submit(direct("a", 0))
    seq.submit(delayed("b", 1))
    seq.set_status(SequencerStatus.ACTIVE)
    seq.submit(direct("c", 2))
    submitted, pending, inboxed, executed = seq.counts()
    assert submitted == pending + inboxed + executed == 3
    seq.tick(3)
    submitted, pending, inboxed, executed = seq.counts()
    assert submitted == 3 and executed == 3 and pending == inboxed == 0


_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(["direct", "delayed"])),
        st.tuples(st.just("status"), st.sampled_from(["active", "down"])),
        st.tuples(st.just("tick"), st.just(None)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(events=_EVENTS)
def test_conservation_and_no_duplicates_under_random_schedules(events):
    seq = Sequencer()
    now = 0
    pairs = []
    for i, (kind, arg) in enumerate(events):
        now += 7
        if kind == "submit":
            origin = TxOrigin.DIRECT_TO_SEQUENCER if arg == "direct" else TxOrigin.DELAYED_INBOX
            seq.submit(L2Tx(id=f"tx{i}", submit_time=now, origin=origin))
        elif kind == "status":
            seq.set_status(SequencerStatus(arg))
        else:
            pairs += ticked(seq, now)
        submitted, pending, inboxed, executed = seq.counts()
        assert submitted == pending + inboxed + executed
        assert executed == len(pairs)
    executed_ids = [tx.id for tx, _ in pairs]
    assert len(executed_ids) == len(set(executed_ids))
    times = [at for _, at in pairs]
    assert times == sorted(times)


class FullScanSequencer(Sequencer):
    """Reference: every down tick scans the whole delayed inbox."""

    def tick(self, now):
        if self._last_tick is not None and now < self._last_tick:
            raise TimeRegression(f"tick at {now} precedes previous tick at {self._last_tick}")
        self._last_tick = now
        executed = []
        if self.status is SequencerStatus.ACTIVE:
            executed += self.delayed_inbox.values()
            executed += self.pending
            self.delayed_inbox, self.pending = {}, deque()
        else:
            remaining = {}
            for tx in self.delayed_inbox.values():
                if not tx.underpriced and now - tx.submit_time >= self.force_inclusion_delay:
                    executed.append(tx)
                else:
                    remaining[tx.id] = tx
            self.delayed_inbox = remaining
        self.executed_count += len(executed)
        return executed


_SCHEDULE = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(list(TxOrigin)),
            st.sampled_from([-50, -5, -1, 0, 1, 5, 50]),  # submit_time - now: not monotone
            st.booleans(),  # underpriced
        ),
        st.tuples(st.just("status"), st.sampled_from(list(SequencerStatus))),
        st.tuples(st.just("tick"), st.sampled_from([0, 1, 4, 5, 45, 50, 86_400])),
    ),
    min_size=4,
    max_size=60,
)


@settings(max_examples=400, deadline=None)
@given(
    delay=st.sampled_from([0, 5, 50, 86_400]),
    status=st.sampled_from(list(SequencerStatus)),
    inbox=st.lists(st.tuples(st.sampled_from([-50, 0, 50]), st.booleans()), max_size=4),
    schedule=_SCHEDULE,
)
def test_watermark_ticks_match_a_full_scan(delay, status, inbox, schedule):
    """The heap top is the exact watermark: ticks match a full scan of every down tick."""
    given = [delayed(f"given{i}", 100 + offset, underpriced=cheap)
             for i, (offset, cheap) in enumerate(inbox)]
    fast = Sequencer(status=status, force_inclusion_delay=delay,
                     delayed_inbox={tx.id: tx for tx in given})
    slow = FullScanSequencer(status=status, force_inclusion_delay=delay,
                             delayed_inbox={tx.id: tx for tx in given})
    now = 100
    for i, (kind, *args) in enumerate(schedule):
        if kind == "submit":
            origin, offset, underpriced = args
            for seq in (fast, slow):
                seq.submit(L2Tx(id=f"tx{i}", submit_time=now + offset,
                                origin=origin, underpriced=underpriced))
        elif kind == "status":
            fast.set_status(args[0])
            slow.set_status(args[0])
        else:
            now += args[0]
            assert [tx.id for tx in fast.tick(now)] == [tx.id for tx in slow.tick(now)]
    assert fast.counts() == slow.counts()
    assert list(fast.delayed_inbox) == list(slow.delayed_inbox)
    assert [tx.id for tx in fast.pending] == [tx.id for tx in slow.pending]
